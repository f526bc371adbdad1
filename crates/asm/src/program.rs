//! Program structure: functions, labelled basic blocks, and tagged
//! instructions, plus program-level data (globals) and validation.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::inst::Inst;
use crate::operand::Operand;
use crate::provenance::Provenance;

/// A code label (block label or function/intrinsic name).
pub type Label = String;

/// An instruction together with its cross-layer provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmInst {
    /// The instruction itself.
    pub inst: Inst,
    /// Where it came from.
    pub prov: Provenance,
}

impl AsmInst {
    /// Tags an instruction with provenance.
    pub fn new(inst: Inst, prov: Provenance) -> AsmInst {
        AsmInst { inst, prov }
    }

    /// Tags an instruction as synthetic (tests/examples).
    pub fn synthetic(inst: Inst) -> AsmInst {
        AsmInst::new(inst, Provenance::Synthetic)
    }
}

/// A labelled basic block: straight-line instructions, with control
/// transfers allowed anywhere (conditional jumps mid-block fall through
/// like real assembly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmBlock {
    /// The block's label (unique within the program).
    pub label: Label,
    /// The instructions in program order.
    pub insts: Vec<AsmInst>,
}

impl AsmBlock {
    /// Creates an empty block.
    pub fn new(label: impl Into<Label>) -> AsmBlock {
        AsmBlock {
            label: label.into(),
            insts: Vec::new(),
        }
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Inst, prov: Provenance) {
        self.insts.push(AsmInst::new(inst, prov));
    }
}

/// A function: an ordered list of basic blocks; execution enters at the
/// first block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmFunction {
    /// The function name (also the label used by `call`).
    pub name: Label,
    /// Basic blocks in layout order (fall-through follows this order).
    pub blocks: Vec<AsmBlock>,
}

impl AsmFunction {
    /// Creates an empty function.
    pub fn new(name: impl Into<Label>) -> AsmFunction {
        AsmFunction {
            name: name.into(),
            blocks: Vec::new(),
        }
    }

    /// Total number of static instructions.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// True if the function has no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all instructions in layout order.
    pub fn insts(&self) -> impl Iterator<Item = &AsmInst> {
        self.blocks.iter().flat_map(|b| b.insts.iter())
    }
}

/// A mutable global data object living in the simulated data segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataObject {
    /// Symbol name.
    pub name: String,
    /// Initial contents as 64-bit words (every array element occupies a
    /// full word; narrower program types are stored sign-extended).
    pub words: Vec<i64>,
}

impl DataObject {
    /// Creates a data object from its initial words.
    pub fn new(name: impl Into<String>, words: Vec<i64>) -> DataObject {
        DataObject {
            name: name.into(),
            words,
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.words.len() as u64 * 8
    }
}

/// A whole program: functions plus global data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsmProgram {
    /// Functions; execution starts at the one named `main`.
    pub functions: Vec<AsmFunction>,
    /// Global data objects.
    pub data: Vec<DataObject>,
}

/// Structural problems found by [`AsmProgram::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// Two blocks or functions share a label.
    DuplicateLabel(Label),
    /// A jump targets a label that does not exist.
    UnknownTarget { in_function: Label, target: Label },
    /// A function's final block does not end in `ret` or `jmp`.
    MissingTerminator(Label),
    /// A `mov` has two memory operands.
    MemToMem(Label),
    /// The program has no `main` function.
    NoMain,
    /// A `pinsrq`/`vinserti128` lane index is out of range.
    BadLane(Label),
    /// An instruction writes an immediate operand (`movq %rcx, $0`).
    ImmediateDestination(Label),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            ValidateError::UnknownTarget {
                in_function,
                target,
            } => {
                write!(
                    f,
                    "unknown jump target `{target}` in function `{in_function}`"
                )
            }
            ValidateError::MissingTerminator(l) => {
                write!(f, "function `{l}` does not end in ret/jmp")
            }
            ValidateError::MemToMem(l) => {
                write!(f, "memory-to-memory mov in function `{l}`")
            }
            ValidateError::NoMain => write!(f, "program has no `main` function"),
            ValidateError::BadLane(l) => write!(f, "lane index out of range in function `{l}`"),
            ValidateError::ImmediateDestination(l) => {
                write!(
                    f,
                    "instruction writes an immediate operand in function `{l}`"
                )
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl AsmProgram {
    /// Creates an empty program.
    pub fn new() -> AsmProgram {
        AsmProgram::default()
    }

    /// Total number of static instructions across all functions.
    pub fn static_inst_count(&self) -> usize {
        self.functions.iter().map(AsmFunction::len).sum()
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&AsmFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Finds a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut AsmFunction> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Finds a data object by symbol name.
    pub fn data_object(&self, name: &str) -> Option<&DataObject> {
        self.data.iter().find(|d| d.name == name)
    }

    /// Builds the map from label to `(function index, block index)`.
    pub fn label_map(&self) -> HashMap<&str, (usize, usize)> {
        let mut map = HashMap::new();
        for (fi, f) in self.functions.iter().enumerate() {
            for (bi, b) in f.blocks.iter().enumerate() {
                map.insert(b.label.as_str(), (fi, bi));
            }
        }
        map
    }

    /// Checks structural well-formedness.
    ///
    /// # Errors
    ///
    /// Returns every problem found (duplicate labels, dangling jump
    /// targets, missing terminators, malformed movs, immediate
    /// destinations, missing `main`).
    pub fn validate(&self) -> Result<(), Vec<ValidateError>> {
        let mut errors = Vec::new();
        let mut seen = HashSet::new();
        for f in &self.functions {
            if !seen.insert(f.name.as_str()) {
                errors.push(ValidateError::DuplicateLabel(f.name.clone()));
            }
            for b in &f.blocks {
                if !seen.insert(b.label.as_str()) {
                    errors.push(ValidateError::DuplicateLabel(b.label.clone()));
                }
            }
        }
        if self.function("main").is_none() {
            errors.push(ValidateError::NoMain);
        }
        for f in &self.functions {
            let local: HashMap<&str, ()> =
                f.blocks.iter().map(|b| (b.label.as_str(), ())).collect();
            for ai in f.insts() {
                match &ai.inst {
                    Inst::Jmp { target } | Inst::Jcc { target, .. }
                        if !local.contains_key(target.as_str())
                            && target != crate::EXIT_FUNCTION =>
                    {
                        errors.push(ValidateError::UnknownTarget {
                            in_function: f.name.clone(),
                            target: target.clone(),
                        });
                    }
                    Inst::Call { target } => {
                        let is_intrinsic =
                            target == crate::PRINT_I64 || target == crate::EXIT_FUNCTION;
                        if !is_intrinsic && self.function(target).is_none() {
                            errors.push(ValidateError::UnknownTarget {
                                in_function: f.name.clone(),
                                target: target.clone(),
                            });
                        }
                    }
                    Inst::Mov { src, dst, .. } if src.is_mem() && dst.is_mem() => {
                        errors.push(ValidateError::MemToMem(f.name.clone()));
                    }
                    Inst::Pinsrq { lane, .. } | Inst::Pextrq { lane, .. } if *lane > 1 => {
                        errors.push(ValidateError::BadLane(f.name.clone()));
                    }
                    Inst::Vinserti128 { lane, .. } if *lane > 1 => {
                        errors.push(ValidateError::BadLane(f.name.clone()));
                    }
                    Inst::Mov { dst, .. }
                    | Inst::Alu { dst, .. }
                    | Inst::Unary { dst, .. }
                    | Inst::Shift { dst, .. }
                    | Inst::Setcc { dst, .. }
                    | Inst::Pop { dst }
                        if matches!(dst, Operand::Imm(_)) =>
                    {
                        errors.push(ValidateError::ImmediateDestination(f.name.clone()));
                    }
                    _ => {}
                }
            }
            let terminated = f
                .blocks
                .last()
                .and_then(|b| b.insts.last())
                .is_some_and(|i| i.inst.is_terminator());
            if !terminated {
                errors.push(ValidateError::MissingTerminator(f.name.clone()));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

/// Convenience: wraps a raw operand list of instructions into a
/// single-block `main` function (used heavily in tests).
pub fn single_block_main(insts: Vec<Inst>) -> AsmProgram {
    let mut f = AsmFunction::new("main");
    let mut b = AsmBlock::new("main_entry");
    for i in insts {
        b.push(i, Provenance::Synthetic);
    }
    // Ensure termination for convenience.
    if !b.insts.last().is_some_and(|i| i.inst.is_terminator()) {
        b.push(Inst::Ret, Provenance::Synthetic);
    }
    f.blocks.push(b);
    AsmProgram {
        functions: vec![f],
        data: Vec::new(),
    }
}

/// Returns `true` if `op` is a register operand naming `gpr` at any width.
pub fn operand_is_gpr(op: &Operand, gpr: crate::reg::Gpr) -> bool {
    matches!(op, Operand::Reg(r) if r.gpr == gpr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::operand::{MemRef, Operand};
    use crate::reg::{Gpr, Reg, Width};

    #[test]
    fn single_block_main_is_valid() {
        let p = single_block_main(vec![Inst::Nop]);
        assert!(p.validate().is_ok());
        assert_eq!(p.static_inst_count(), 2); // nop + implicit ret
    }

    #[test]
    fn missing_main_is_rejected() {
        let mut p = AsmProgram::new();
        let mut f = AsmFunction::new("helper");
        let mut b = AsmBlock::new("h0");
        b.push(Inst::Ret, Provenance::Synthetic);
        f.blocks.push(b);
        p.functions.push(f);
        let errs = p.validate().unwrap_err();
        assert!(errs.contains(&ValidateError::NoMain));
    }

    #[test]
    fn dangling_jump_is_rejected() {
        let p = single_block_main(vec![Inst::Jmp {
            target: "nowhere".into(),
        }]);
        let errs = p.validate().unwrap_err();
        assert!(matches!(errs[0], ValidateError::UnknownTarget { .. }));
    }

    #[test]
    fn jump_to_exit_function_is_allowed() {
        let p = single_block_main(vec![Inst::Jcc {
            cc: crate::flags::Cc::Ne,
            target: crate::EXIT_FUNCTION.into(),
        }]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn call_to_print_intrinsic_is_allowed() {
        let p = single_block_main(vec![Inst::Call {
            target: crate::PRINT_I64.into(),
        }]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn call_to_unknown_function_is_rejected() {
        let p = single_block_main(vec![Inst::Call {
            target: "mystery".into(),
        }]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn mem_to_mem_mov_is_rejected() {
        let p = single_block_main(vec![Inst::Mov {
            w: Width::W64,
            src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -8)),
            dst: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -16)),
        }]);
        let errs = p.validate().unwrap_err();
        assert!(errs.contains(&ValidateError::MemToMem("main".into())));
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let mut p = single_block_main(vec![Inst::Nop]);
        let dup = p.functions[0].blocks[0].clone();
        p.functions[0].blocks.push(dup);
        assert!(p.validate().is_err());
    }

    #[test]
    fn block_label_equal_to_a_function_name_is_a_duplicate_label() {
        // Functions and blocks share one label namespace: a block of
        // `main` named `helper` clashes with the function `helper`,
        // and the error names the label that came second.
        let mut p = single_block_main(vec![Inst::Nop]);
        let mut helper = AsmFunction::new("helper");
        let mut entry = AsmBlock::new("helper_entry");
        entry.push(Inst::Ret, Provenance::Synthetic);
        helper.blocks.push(entry);
        p.functions.push(helper);
        let mut clash = AsmBlock::new("helper");
        clash.push(Inst::Ret, Provenance::Synthetic);
        p.functions[0].blocks.push(clash);
        assert_eq!(
            p.validate().unwrap_err(),
            [ValidateError::DuplicateLabel("helper".into())]
        );
    }

    #[test]
    fn bad_lane_rejected() {
        let p = single_block_main(vec![Inst::Pinsrq {
            lane: 2,
            src: Operand::Reg(Reg::q(Gpr::Rax)),
            dst: crate::reg::Xmm::new(0),
        }]);
        let errs = p.validate().unwrap_err();
        assert!(errs.contains(&ValidateError::BadLane("main".into())));
    }

    #[test]
    fn immediate_destination_is_rejected() {
        let rcx = || Operand::Reg(Reg::q(Gpr::Rcx));
        let imm = || Operand::Imm(0);
        let writers = [
            Inst::Mov {
                w: Width::W64,
                src: rcx(),
                dst: imm(),
            },
            Inst::Alu {
                op: crate::inst::AluOp::Add,
                w: Width::W64,
                src: rcx(),
                dst: imm(),
            },
            Inst::Unary {
                op: crate::inst::UnaryOp::Neg,
                w: Width::W64,
                dst: imm(),
            },
            Inst::Shift {
                op: crate::inst::ShiftOp::Shl,
                w: Width::W64,
                amount: crate::inst::ShiftAmount::Imm(1),
                dst: imm(),
            },
            Inst::Setcc {
                cc: crate::flags::Cc::E,
                dst: imm(),
            },
            Inst::Pop { dst: imm() },
        ];
        for inst in writers {
            let errs = single_block_main(vec![inst.clone()])
                .validate()
                .unwrap_err();
            assert_eq!(
                errs,
                [ValidateError::ImmediateDestination("main".into())],
                "{inst:?}"
            );
        }
        // Reading an immediate is fine, and so is comparing against one.
        let cmp = Inst::Cmp {
            w: Width::W64,
            src: rcx(),
            dst: imm(),
        };
        assert!(single_block_main(vec![cmp]).validate().is_ok());
    }

    #[test]
    fn label_map_covers_all_blocks() {
        let mut p = single_block_main(vec![Inst::Nop]);
        let mut extra = AsmBlock::new("bb2");
        extra.push(Inst::Ret, Provenance::Synthetic);
        p.functions[0].blocks.push(extra);
        let map = p.label_map();
        assert_eq!(map["main_entry"], (0, 0));
        assert_eq!(map["bb2"], (0, 1));
    }

    #[test]
    fn data_object_size() {
        let d = DataObject::new("arr", vec![1, 2, 3]);
        assert_eq!(d.size(), 24);
    }

    #[test]
    fn function_helpers() {
        let p = single_block_main(vec![Inst::Nop]);
        assert!(p.function("main").is_some());
        assert!(p.function("other").is_none());
        let f = p.function("main").unwrap();
        assert!(!f.is_empty());
    }
}
