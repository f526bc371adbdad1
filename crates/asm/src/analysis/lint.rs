//! `ferrum lint` — static soundness analysis of *protected* assembly.
//!
//! The protection passes promise the invariant documented in
//! `ferrum-eddi`: every single bit flip in the destination of an
//! injectable instruction is masked, detected, or crashes — never a
//! silent data corruption.  This module verifies the four structural
//! contracts that invariant rests on, path-insensitively but soundly,
//! with a forward *shadow-equivalence* dataflow over the [`Cfg`]:
//!
//! 1. **Checked synchronisation** ([`LintContract::CheckedSync`]): the
//!    result of every injectable instruction is verified — by an
//!    adjacent scalar checker (`xor`/`cmp` + `jne exit_function`) or by
//!    capture into a SIMD batch — before any non-protection instruction,
//!    call, or `ret` consumes it.  The dataflow tracks *dirty* registers
//!    (unverified results) and every copy a checker makes of them; a
//!    checker whose operands were clobbered since duplication does not
//!    clean the site.
//! 2. **Batch integrity** ([`LintContract::BatchIntegrity`]): SIMD batch
//!    accumulators are never aliased or clobbered between accumulation
//!    and the `vpxor`+`vptest` drain, each (register, lane) slot holds at
//!    most one pending capture, and the batch is drained before any
//!    control transfer or block end.  A store may consume a
//!    captured-but-undrained value: the forced drain at the next control
//!    transfer still detects the fault before output can escape.
//! 3. **Deferred flag checks** ([`LintContract::DeferredFlags`]): a
//!    protected `cmp`/`test` (Fig. 5 idiom: `setcc` pair around a
//!    duplicate compare) must have its pair verified on **every** CFG
//!    successor of the consuming branch before anything overwrites the
//!    pair registers, and — when the function uses FERRUM-style
//!    protection — no consumed compare may be left unprotected.
//! 4. **Requisition balance** ([`LintContract::Requisition`]): stack
//!    requisitions (Fig. 7) are balanced on every path, restored through
//!    red-zone-verified pops, and the requisitioned registers are never
//!    touched by non-protection code while on the stack.
//!
//! Protection code is identified by [`Provenance::is_protection`].  A
//! printed listing keeps provenance as `# prot:ferrum:dup`-style
//! comments, so a parsed listing lints like the pass output it came
//! from; what printing loses is the pass's [`ProtectionManifest`]s, so
//! manifest-driven linting needs the in-memory pass output.  Functions
//! with no assembly-level protection tags are skipped: there is no
//! contract to verify.  IR-level signature protection (`HybridAsmEddi`
//! retags) is trusted for compare coverage — contract 3's
//! unprotected-compare rule only applies to functions carrying
//! `Ferrum` tags.
//!
//! Unreachable blocks are skipped per the [`Cfg::reverse_post_order`]
//! contract: they never execute, so no fault there is observable.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::HashMap;

use crate::analysis::cfg::{block_labels, Cfg};
use crate::analysis::liveness::{abi_reads_kills, gprs_in, reg_bytes, ByteSet, Liveness};
use crate::flags::Cc;
use crate::inst::{AluOp, DestClass, Inst};
use crate::operand::Operand;
use crate::printer::print_inst;
use crate::program::{AsmFunction, AsmProgram};
use crate::provenance::{GlueKind, Provenance, TechniqueTag};
use crate::reg::Gpr;
use crate::EXIT_FUNCTION;

/// The four FERRUM protection contracts (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintContract {
    /// Every injectable result is checked before it is consumed.
    CheckedSync,
    /// SIMD batch accumulators are exclusive and drained at flush points.
    BatchIntegrity,
    /// Deferred flag pairs are checked on every successor.
    DeferredFlags,
    /// Stack requisitions are balanced and verified on every path.
    Requisition,
}

impl LintContract {
    /// Stable short name used by reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            LintContract::CheckedSync => "checked-sync",
            LintContract::BatchIntegrity => "batch-integrity",
            LintContract::DeferredFlags => "deferred-flags",
            LintContract::Requisition => "requisition",
        }
    }
}

/// One violation of a protection contract at a concrete program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Which contract is violated.
    pub contract: LintContract,
    /// Enclosing function name.
    pub function: String,
    /// Label of the block containing the offending instruction.
    pub block: String,
    /// Index of the offending instruction within the block.
    pub inst_index: usize,
    /// Provenance of the offending instruction.
    pub provenance: Provenance,
    /// Human-readable description of the violation.
    pub explanation: String,
}

/// Result of linting a whole program.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in function/block/instruction order.
    pub findings: Vec<LintFinding>,
    /// Functions examined (including skipped unprotected ones).
    pub functions_scanned: usize,
    /// Instructions examined.
    pub insts_scanned: usize,
}

impl LintReport {
    /// True when no contract violation was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings for one contract.
    pub fn by_contract(&self, c: LintContract) -> impl Iterator<Item = &LintFinding> {
        self.findings.iter().filter(move |f| f.contract == c)
    }
}

/// Checker metadata a protection pass hands to the lint: which
/// resources the pass claims to have reserved.  The lint verifies the
/// claims — original code must never touch a reserved register, and
/// nothing outside the drain protocol may write a batch accumulator —
/// in addition to the shape inference it performs on its own.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtectionManifest {
    /// GPRs the pass reserved function-wide (scratch + comparison
    /// pair).  Empty when the pass used per-block stack requisition
    /// instead of dedicated registers.
    pub reserved_gprs: Vec<Gpr>,
    /// XMM register indices serving as SIMD batch accumulators.
    pub accumulators: Vec<u8>,
}

/// Lints every function of `p`.
pub fn lint_program(p: &AsmProgram) -> LintReport {
    lint_program_with(p, &BTreeMap::new())
}

/// Lints every function of `p`, consulting per-function manifests
/// (keyed by function name) where available.
pub fn lint_program_with(
    p: &AsmProgram,
    manifests: &BTreeMap<String, ProtectionManifest>,
) -> LintReport {
    let mut report = LintReport::default();
    for f in &p.functions {
        report.functions_scanned += 1;
        report.insts_scanned += f.insts().count();
        report
            .findings
            .extend(lint_function_with(f, manifests.get(&f.name)));
    }
    report
}

/// Lints one function.  Returns findings in block/instruction order.
pub fn lint_function(f: &AsmFunction) -> Vec<LintFinding> {
    lint_function_with(f, None)
}

/// Lints one function with optional pass-provided checker metadata.
///
/// The findings are those of the fixpoint's own block scans: a block
/// is queued whenever its entry fact changes, so its last scan ran on
/// its final entry fact.  Blocks report in reverse post-order, each
/// with its scan's findings and then its unbalanced out-edges.
pub fn lint_function_with(
    f: &AsmFunction,
    manifest: Option<&ProtectionManifest>,
) -> Vec<LintFinding> {
    let Tags {
        ferrum,
        asm,
        mut accs,
    } = Tags::of(f);
    if !asm {
        // No assembly-level protection present: nothing to verify.
        return Vec::new();
    }
    let labels = block_labels(f);
    let cfg = Cfg::with_labels(f, &labels);
    let lv = Liveness::compute(f, &cfg);
    let mut reserved: Vec<Gpr> = Vec::new();
    if let Some(m) = manifest {
        accs.extend(m.accumulators.iter().copied());
        reserved.extend(m.reserved_gprs.iter().copied());
    }
    let ctx = Ctx {
        f,
        lv: &lv,
        labels: &labels,
        accs: &accs,
        reserved: &reserved,
        compares: ferrum,
    };

    // Fixpoint over block entry facts (worklist seeded with the entry),
    // keeping the findings of each block's last scan and the stack on
    // each of its out-edges.  A loop that saves a requisitioned register
    // and never restores it grows its entry stack on every trip, so past
    // the round cap the queued blocks are scanned once more on their
    // current facts and their edges no longer joined.
    let n = f.blocks.len();
    let mut entry: Vec<Option<Fact>> = vec![None; n];
    let mut last: Vec<Option<(Findings, EdgeStacks)>> = (0..n).map(|_| None).collect();
    entry[0] = Some(Fact::default());
    let mut work = vec![0usize];
    let mut rounds = 0usize;
    while let Some(bi) = work.pop() {
        rounds += 1;
        let fact = entry[bi].as_ref().expect("worklist blocks have facts");
        let Scan {
            edges, findings, ..
        } = Scan::block(&ctx, bi, fact);
        let mut stacks = Vec::with_capacity(edges.len());
        for (t, ef) in edges {
            stacks.push((t, ef.stack.clone()));
            if rounds > n * 64 + 64 {
                continue;
            }
            let merged = match &entry[t] {
                None => ef,
                Some(old) => join(old, &ef),
            };
            if entry[t].as_ref() != Some(&merged) {
                entry[t] = Some(merged);
                if !work.contains(&t) {
                    work.push(t);
                }
            }
        }
        last[bi] = Some((findings, stacks));
    }

    let mut findings = Vec::new();
    for bi in cfg.reverse_post_order() {
        let Some((mut out, stacks)) = last[bi].take() else {
            continue;
        };
        // Requisition stacks must agree at join points: an edge whose
        // stack differs from the fixpoint entry of its target means some
        // other path into that target pushes or pops differently.
        for (t, stack) in stacks {
            if entry[t].as_ref().is_some_and(|te| te.stack != stack) {
                out.report(
                    LintContract::Requisition,
                    f.blocks[bi].insts.len().saturating_sub(1),
                    Provenance::Synthetic,
                    format!(
                        "requisition stack unbalanced across paths into `{}`",
                        f.blocks[t].label
                    ),
                );
            }
        }
        findings.append(&mut out.list);
    }
    dedupe_by_dominance(&cfg, &labels, &mut findings);
    findings
}

/// What a function's protection tags show, found in one walk.
struct Tags {
    /// FERRUM-style flag protection expected: consumed compares must use
    /// the deferred idiom (hybrid covers compares at the IR level).
    ferrum: bool,
    /// Assembly-level (FERRUM or hybrid) protection is present: track
    /// dirty results.
    asm: bool,
    /// SIMD accumulator registers: every XMM index a protection capture
    /// writes.  Input programs contain no SIMD (the passes reject it),
    /// so any protection `movq`/`pinsrq` into an XMM register is a batch
    /// slot.
    accs: BTreeSet<u8>,
}

impl Tags {
    fn of(f: &AsmFunction) -> Tags {
        let mut tags = Tags {
            ferrum: false,
            asm: false,
            accs: BTreeSet::new(),
        };
        for ai in f.insts() {
            let Provenance::Protection(tag, _) = ai.prov else {
                continue;
            };
            tags.ferrum |= tag == TechniqueTag::Ferrum;
            tags.asm |= tag != TechniqueTag::IrEddi;
            if let Inst::MovqToXmm { dst, .. } | Inst::Pinsrq { dst, .. } = &ai.inst {
                tags.accs.insert(dst.0);
            }
        }
        tags
    }
}

/// Identifies the original-site instruction a piece of dirt came from.
type SiteId = (usize, usize);

/// One slot of the modelled requisition/protection stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StackEntry {
    /// Protection push of a requisitioned register (Fig. 7 save): made in
    /// the block prologue, restored through a red-zone-verified pop, and
    /// untouchable by original code while on the stack.
    Req(Gpr),
    /// Protection push capturing an unverified result (idiv scheme).
    Capture(SiteId),
    /// Mid-block protection save of a clean live value (e.g. the
    /// dividend's `%rdx` before `idiv` replay) — read back by address or
    /// discarded, with none of the requisition obligations.
    Save(Gpr),
    /// Anything else (frame saves, non-register pushes).
    Plain,
}

/// The requisition stack on each out-edge of a block, by target block.
type EdgeStacks = Vec<(usize, Vec<StackEntry>)>;

/// A protected compare whose pair check is still outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PairPending {
    p0: Gpr,
    p1: Gpr,
    site: SiteId,
}

/// Dataflow fact at a block boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Fact {
    /// Registers holding unverified original results (and copies made by
    /// protection code), keyed by register.
    dirty: BTreeMap<Gpr, SiteId>,
    /// Outstanding deferred flag pair, if any.
    pair: Option<PairPending>,
    /// Modelled stack of protection pushes (bottom first).
    stack: Vec<StackEntry>,
}

fn join(a: &Fact, b: &Fact) -> Fact {
    let mut dirty = a.dirty.clone();
    for (g, s) in &b.dirty {
        let site = dirty.entry(*g).or_insert(*s);
        *site = (*site).min(*s);
    }
    // Keep the longer stack: missing pops surface at the eventual `ret`.
    let stack = if b.stack.len() > a.stack.len() {
        &b.stack
    } else {
        &a.stack
    };
    Fact {
        dirty,
        pair: a.pair.or(b.pair),
        stack: stack.clone(),
    }
}

struct Ctx<'a> {
    f: &'a AsmFunction,
    lv: &'a Liveness,
    /// The block index of each label (see [`block_labels`]).
    labels: &'a HashMap<&'a str, usize>,
    accs: &'a BTreeSet<u8>,
    /// Manifest-declared function-wide reserved GPRs (empty without a
    /// manifest, or in requisition mode).
    reserved: &'a [Gpr],
    /// Consumed compares must use the deferred idiom ([`Tags::ferrum`]).
    compares: bool,
}

/// What the immediately preceding protection instruction armed: the
/// `jne exit_function` that follows consumes it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Armed {
    /// Scalar check (`xor`/`cmp`) over these registers.
    Scalar(Vec<Gpr>),
    /// SIMD batch drain (`vptest*`).
    Drain,
}

/// The findings of one block: every [`LintFinding`] is made here.
struct Findings<'a> {
    function: &'a str,
    block: &'a str,
    list: Vec<LintFinding>,
}

impl Findings<'_> {
    fn report(
        &mut self,
        contract: LintContract,
        inst_index: usize,
        provenance: Provenance,
        explanation: String,
    ) {
        self.list.push(LintFinding {
            contract,
            function: self.function.to_owned(),
            block: self.block.to_owned(),
            inst_index,
            provenance,
            explanation,
        });
    }
}

/// One scan of a block from an entry fact: the fact as the scan runs,
/// the out-edges with the fact each carries, and the findings.
struct Scan<'a> {
    ctx: &'a Ctx<'a>,
    bi: usize,
    fact: Fact,
    edges: Vec<(usize, Fact)>,
    findings: Findings<'a>,
}

impl<'a> Scan<'a> {
    /// Scans block `bi` from `entry`.
    fn block(ctx: &'a Ctx<'a>, bi: usize, entry: &Fact) -> Scan<'a> {
        let mut scan = Scan {
            ctx,
            bi,
            fact: entry.clone(),
            edges: Vec::new(),
            findings: Findings {
                function: &ctx.f.name,
                block: &ctx.f.blocks[bi].label,
                list: Vec::new(),
            },
        };
        scan.run();
        scan
    }

    fn run(&mut self) {
        let ctx = self.ctx;
        let bi = self.bi;
        let b = &ctx.f.blocks[bi];
        // Batch slots are block-local: stock code drains before block end.
        let mut slots: BTreeMap<(u8, u8), SiteId> = BTreeMap::new();
        let mut armed: Option<Armed> = None;
        // Fig. 5 idiom recognised but consumer branch not yet reached.
        let mut armed_pair: Option<PairPending> = None;
        // Requisition pushes appear in the block "prologue": before the
        // first instruction that is neither protection nor frame setup.
        // Protection pushes later in the block are value saves (idiv).
        let mut in_prologue = true;

        for (i, ai) in b.insts.iter().enumerate() {
            let (inst, prov) = (&ai.inst, ai.prov);
            let effects = inst.effects();
            let this_armed = armed.take();
            if !prov.is_protection() && prov != Provenance::Glue(GlueKind::FrameSetup) {
                in_prologue = false;
            }

            // -- Batch flush points: any control transfer except the checker
            // branch itself must see an empty batch.
            let is_checker_jcc = matches!(
                inst,
                Inst::Jcc { cc: Cc::Ne, target } if target == EXIT_FUNCTION
            ) && prov.is_protection();
            if inst.is_control() && !is_checker_jcc && !slots.is_empty() {
                self.findings.report(
                    LintContract::BatchIntegrity,
                    i,
                    prov,
                    format!(
                        "SIMD batch holds {} undrained capture(s) at `{}`",
                        slots.len(),
                        print_inst(inst)
                    ),
                );
                slots.clear();
            }

            if prov.is_protection() {
                match inst {
                    // ---- batch captures -------------------------------------
                    Inst::MovqToXmm { src, dst } | Inst::Pinsrq { src, dst, .. } => {
                        let lane = match inst {
                            Inst::Pinsrq { lane, .. } => *lane,
                            _ => 0,
                        };
                        let key = (dst.0, lane);
                        if let Some(prev) = slots.get(&key) {
                            self.findings.report(
                                LintContract::BatchIntegrity,
                                i,
                                prov,
                                format!(
                                    "batch slot %xmm{} lane {lane} reused before drain \
                                     (pending capture from block {} inst {})",
                                    dst.0, prev.0, prev.1
                                ),
                            );
                        }
                        let origin = match src {
                            Operand::Reg(r) => self.fact.dirty.remove(&r.gpr).unwrap_or((bi, i)),
                            _ => (bi, i),
                        };
                        slots.insert(key, origin);
                    }
                    // ---- batch drain ----------------------------------------
                    Inst::Vptest { .. } | Inst::Vptest128 { .. } | Inst::Vptest512 { .. } => {
                        armed = Some(Armed::Drain);
                    }
                    // Widening/xor steps of the drain protocol: allowed
                    // writes to the accumulators.
                    Inst::Vpxor { .. }
                    | Inst::Vpxor128 { .. }
                    | Inst::Vpxor512 { .. }
                    | Inst::Vinserti128 { .. }
                    | Inst::Vinserti64x4 { .. } => {}
                    // ---- the checker branch ---------------------------------
                    Inst::Jcc { .. } if is_checker_jcc => match this_armed {
                        Some(Armed::Drain) => slots.clear(),
                        Some(Armed::Scalar(regs)) => {
                            for g in &regs {
                                self.fact.dirty.remove(g);
                            }
                            if let Some(p) = self.fact.pair {
                                if regs.contains(&p.p0) && regs.contains(&p.p1) {
                                    self.fact.pair = None;
                                }
                            }
                        }
                        None => {
                            // A bare checker compares nothing: harmless
                            // for soundness, so not a finding.
                        }
                    },
                    // ---- scalar checks arm the next jne ---------------------
                    Inst::Cmp { src, dst, .. } => {
                        let regs = [src, dst].into_iter().filter_map(Operand::as_reg);
                        armed = Some(Armed::Scalar(regs.map(|r| r.gpr).collect()));
                    }
                    Inst::Alu {
                        op: AluOp::Xor,
                        src: Operand::Reg(s),
                        dst: Operand::Reg(d),
                        ..
                    } => {
                        // The xor overwrites the duplicate: apply the
                        // write rules before arming with it.
                        self.protection_writes(i, inst, prov, effects.gpr_write);
                        armed = Some(Armed::Scalar(vec![s.gpr, d.gpr]));
                    }
                    // ---- stack protocol -------------------------------------
                    Inst::Push { src } => {
                        let entry = match src {
                            Operand::Reg(r) => match self.fact.dirty.get(&r.gpr) {
                                Some(site) => StackEntry::Capture(*site),
                                None if in_prologue => StackEntry::Req(r.gpr),
                                None => StackEntry::Save(r.gpr),
                            },
                            _ => StackEntry::Plain,
                        };
                        self.fact.stack.push(entry);
                    }
                    Inst::Pop { dst } => self.protection_pop(i, prov, dst.as_reg().map(|r| r.gpr)),
                    // Protection `add $8k, %rsp` discards stack slots (the
                    // idiv scheme's saved input).
                    Inst::Alu {
                        op: AluOp::Add,
                        src: Operand::Imm(k),
                        dst: Operand::Reg(r),
                        ..
                    } if r.gpr == Gpr::Rsp => {
                        for _ in 0..(*k / 8).max(0) {
                            match self.fact.stack.pop() {
                                Some(StackEntry::Req(g)) => self.findings.report(
                                    LintContract::Requisition,
                                    i,
                                    prov,
                                    format!("requisitioned {g:?} discarded without restore"),
                                ),
                                Some(_) => {}
                                None => break,
                            }
                        }
                    }
                    // Any other protection instruction: apply the
                    // register-write rules (copies propagate dirt,
                    // overwrites of a sole copy lose the check).
                    _ => self.protection_writes(i, inst, prov, effects.gpr_write),
                }
                self.check_pair_clobber(i, inst, prov, effects.gpr_write);
            } else {
                // Reads of dirty registers, physical or by the ABI (a
                // call's arguments, the returned `%rax`): the unverified
                // value is consumed.
                let (abi_reads, abi_kills) = abi_reads_kills(inst, &effects);
                let reads = effects.gpr_read | abi_reads;
                self.fact.dirty.retain(|&g, &mut site| {
                    if reads & reg_bytes(g) == 0 {
                        return true;
                    }
                    self.findings.report(
                        LintContract::CheckedSync,
                        i,
                        prov,
                        format!(
                            "`{}` consumes unverified result in {g:?} \
                             (site at block {} inst {}, no checker in between)",
                            print_inst(inst),
                            site.0,
                            site.1
                        ),
                    );
                    false
                });

                // Reads/writes of requisitioned registers while they are
                // saved: the raw operands, not the ABI's view of a call.
                let requisitioned = self.fact.stack.iter().fold(0, |set, e| match e {
                    StackEntry::Req(g) => set | reg_bytes(*g),
                    _ => set,
                });
                let touched = (effects.gpr_read | effects.gpr_write) & requisitioned;
                if let Some(g) = gprs_in(touched).next() {
                    self.findings.report(
                        LintContract::Requisition,
                        i,
                        prov,
                        format!(
                            "`{}` touches requisitioned register {g:?} while it is \
                             on the requisition stack",
                            print_inst(inst)
                        ),
                    );
                }

                // Manifest-declared reservations: original code must never
                // write a reserved protection register — the duplicates
                // live there.  Calls are exempt: the pass re-establishes
                // protection state around them (and callee clobbers are
                // modelled below).
                if !ctx.reserved.is_empty() && !matches!(inst, Inst::Call { .. }) {
                    for g in gprs_in(effects.gpr_write) {
                        if ctx.reserved.contains(&g) {
                            self.findings.report(
                                LintContract::CheckedSync,
                                i,
                                prov,
                                format!(
                                    "`{}` writes {g:?}, which the protection pass \
                                     reserved function-wide (manifest violation)",
                                    print_inst(inst)
                                ),
                            );
                        }
                    }
                }

                // Batch accumulators may only be written by the protection
                // capture/drain protocol, never by original code.
                if let Inst::MovqToXmm { dst, .. } | Inst::Pinsrq { dst, .. } = inst {
                    if ctx.accs.contains(&dst.0) {
                        self.findings.report(
                            LintContract::BatchIntegrity,
                            i,
                            prov,
                            format!(
                                "non-protection `{}` writes batch accumulator %xmm{}",
                                print_inst(inst),
                                dst.0
                            ),
                        );
                    }
                }

                // Deferred-flags idiom recognition at an original compare.
                if matches!(inst, Inst::Cmp { .. } | Inst::Test { .. }) {
                    if let Some((p0, p1)) = match_deferred_idiom(b, i) {
                        armed_pair = Some(PairPending {
                            p0,
                            p1,
                            site: (bi, i),
                        });
                    } else if ctx.compares && consumed_flags(b, i) {
                        self.findings.report(
                            LintContract::DeferredFlags,
                            i,
                            prov,
                            format!(
                                "`{}` feeds a branch/setcc but is not protected by the \
                                 deferred setcc-pair idiom",
                                print_inst(inst)
                            ),
                        );
                    }
                }

                match inst {
                    // Consumer of a protected compare: the pair becomes
                    // pending on the fall-through and on the taken edge.
                    Inst::Jcc { .. } | Inst::Setcc { .. } => {
                        if let Some(pp) = armed_pair.take() {
                            self.fact.pair = Some(pp);
                        }
                    }
                    Inst::Call { .. } => {
                        if let Some(p) = self.fact.pair.take() {
                            self.findings.report(
                                LintContract::DeferredFlags,
                                i,
                                prov,
                                format!(
                                    "call with unchecked flag pair from block {} inst {}",
                                    p.site.0, p.site.1
                                ),
                            );
                        }
                        // The callee clobbers caller-saved registers: dirt
                        // there is destroyed, i.e. masked.
                        self.fact
                            .dirty
                            .retain(|&g, _| abi_kills & reg_bytes(g) == 0);
                    }
                    Inst::Ret => {
                        if let Some(p) = self.fact.pair {
                            self.findings.report(
                                LintContract::DeferredFlags,
                                i,
                                prov,
                                format!(
                                    "function returns with unchecked flag pair from \
                                     block {} inst {}",
                                    p.site.0, p.site.1
                                ),
                            );
                        }
                        if self
                            .fact
                            .stack
                            .iter()
                            .any(|e| matches!(e, StackEntry::Req(_)))
                        {
                            self.findings.report(
                                LintContract::Requisition,
                                i,
                                prov,
                                "function returns with requisitioned registers still saved".into(),
                            );
                        }
                        return;
                    }
                    // Original pushes (frame saves) participate in the LIFO.
                    Inst::Push { .. } => self.fact.stack.push(StackEntry::Plain),
                    Inst::Pop { .. } => {
                        if let Some(StackEntry::Req(g)) = self.fact.stack.pop() {
                            self.findings.report(
                                LintContract::Requisition,
                                i,
                                prov,
                                format!(
                                    "original pop unwinds past requisitioned {g:?} \
                                     (restore missing on this path)"
                                ),
                            );
                        }
                    }
                    _ => {}
                }

                self.check_pair_clobber(i, inst, prov, effects.gpr_write);

                // Writes: a new injectable result makes its destination
                // dirty; other writes overwrite (mask) any dirt there.
                if inst.injectable_bits().is_some() {
                    match inst.dest_class() {
                        DestClass::Gpr(r) => {
                            self.fact.dirty.insert(r.gpr, (bi, i));
                        }
                        DestClass::RaxRdxPair(_) => {
                            self.fact.dirty.insert(Gpr::Rax, (bi, i));
                            self.fact.dirty.insert(Gpr::Rdx, (bi, i));
                        }
                        // Flag results are handled by the compare logic.
                        _ => {}
                    }
                } else {
                    let writes = effects.gpr_write;
                    self.fact.dirty.retain(|&g, _| writes & reg_bytes(g) == 0);
                }
            }

            // Jumps of either provenance are edges: protection stub tails,
            // and the hybrid pass's retagged IR-level checker branches
            // (their targets are ordinary detect blocks).  A checker
            // branch to the detector is not.
            if let Inst::Jmp { target } | Inst::Jcc { target, .. } = inst {
                if target != EXIT_FUNCTION {
                    if let Some(&t) = ctx.labels.get(target.as_str()) {
                        self.edges.push((t, self.fact.clone()));
                    }
                }
                if matches!(inst, Inst::Jmp { .. }) {
                    return;
                }
            }
        }

        // Block end (fall-through).
        if !slots.is_empty() {
            self.findings.report(
                LintContract::BatchIntegrity,
                b.insts.len().saturating_sub(1),
                Provenance::Synthetic,
                format!(
                    "SIMD batch holds {} undrained capture(s) at block end",
                    slots.len()
                ),
            );
        }
        // Dirt in registers dead at the block boundary is masked.
        self.fact
            .dirty
            .retain(|g, _| ctx.lv.live_out_contains(bi, *g));
        if bi + 1 < ctx.f.blocks.len() {
            self.edges.push((bi + 1, std::mem::take(&mut self.fact)));
        }
    }

    /// A protection `pop` into `g` (a register, or `None` for memory).
    fn protection_pop(&mut self, i: usize, prov: Provenance, g: Option<Gpr>) {
        match self.fact.stack.pop() {
            None => self.findings.report(
                LintContract::Requisition,
                i,
                prov,
                "protection pop with no matching push on any path".into(),
            ),
            Some(StackEntry::Capture(site)) => {
                if let Some(g) = g {
                    self.fact.dirty.insert(g, site);
                }
            }
            Some(StackEntry::Req(saved)) => {
                if g != Some(saved) {
                    self.findings.report(
                        LintContract::Requisition,
                        i,
                        prov,
                        format!("requisition pop restores {g:?}, but {saved:?} was saved"),
                    );
                }
                if let Some(g) = g {
                    self.fact.dirty.remove(&g);
                    if !red_zone_verified(&self.ctx.f.blocks[self.bi], i, g) {
                        self.findings.report(
                            LintContract::Requisition,
                            i,
                            prov,
                            format!(
                                "requisition pop of {g:?} lacks the red-zone \
                                 verification (`cmpq -8(%rsp)` + `jne`)"
                            ),
                        );
                    }
                }
            }
            Some(StackEntry::Save(_)) | Some(StackEntry::Plain) => {
                if let Some(g) = g {
                    self.fact.dirty.remove(&g);
                }
            }
        }
    }

    /// Applies the register-write rules for a protection instruction
    /// writing `writes`: a `mov` from a dirty register propagates the
    /// dirt to the copy; an overwrite of the *only* remaining copy of an
    /// unverified result destroys the check (a finding); any other
    /// overwrite just clears the local copy.
    fn protection_writes(&mut self, i: usize, inst: &Inst, prov: Provenance, writes: ByteSet) {
        // Copy rule first: mov dirty-reg -> reg transfers the dirt.
        if let Inst::Mov {
            src: Operand::Reg(s),
            dst: Operand::Reg(d),
            ..
        } = inst
        {
            if let Some(site) = self.fact.dirty.get(&s.gpr).copied() {
                self.fact.dirty.insert(d.gpr, site);
                return;
            }
        }
        for g in gprs_in(writes) {
            let fact = &self.fact;
            if let Some(site) = fact.dirty.get(&g).copied() {
                let copies_elsewhere = fact.dirty.iter().any(|(og, os)| *og != g && *os == site)
                    || fact
                        .stack
                        .iter()
                        .any(|e| matches!(e, StackEntry::Capture(s) if *s == site));
                if !copies_elsewhere {
                    self.findings.report(
                        LintContract::CheckedSync,
                        i,
                        prov,
                        format!(
                            "protection code overwrites the only unverified copy of \
                             {g:?} (site at block {} inst {})",
                            site.0, site.1
                        ),
                    );
                }
                self.fact.dirty.remove(&g);
            }
        }
    }

    /// A write (`writes`) to an outstanding flag-pair register (other
    /// than the check itself) loses the deferred comparison.
    fn check_pair_clobber(&mut self, i: usize, inst: &Inst, prov: Provenance, writes: ByteSet) {
        let Some(p) = self.fact.pair else {
            return;
        };
        // The resolving `cmpb p0, p1` reads, not writes, the pair.
        if let Some(g) = gprs_in(writes).find(|&g| g == p.p0 || g == p.p1) {
            self.findings.report(
                LintContract::DeferredFlags,
                i,
                prov,
                format!(
                    "`{}` overwrites flag-pair register {g:?} before the \
                     deferred check of the compare at block {} inst {}",
                    print_inst(inst),
                    p.site.0,
                    p.site.1
                ),
            );
            self.fact.pair = None;
        }
    }
}

/// Matches the Fig. 5 idiom starting at the original compare `b[i]`:
/// `setcc p0` / duplicate compare / `setcc p1`, all protection-tagged.
/// Returns the pair registers.
fn match_deferred_idiom(b: &crate::program::AsmBlock, i: usize) -> Option<(Gpr, Gpr)> {
    let prot_setcc = |ai: &crate::program::AsmInst| -> Option<Gpr> {
        if !ai.prov.is_protection() {
            return None;
        }
        match &ai.inst {
            Inst::Setcc {
                dst: Operand::Reg(r),
                ..
            } => Some(r.gpr),
            _ => None,
        }
    };
    let p0 = prot_setcc(b.insts.get(i + 1)?)?;
    let dup = b.insts.get(i + 2)?;
    if !dup.prov.is_protection() || dup.inst != b.insts[i].inst {
        return None;
    }
    let p1 = prot_setcc(b.insts.get(i + 3)?)?;
    Some((p0, p1))
}

/// True if the flags produced at `b[i]` are read by a non-protection
/// instruction before the next flags writer (block-local, mirroring the
/// backend's flag discipline).
fn consumed_flags(b: &crate::program::AsmBlock, i: usize) -> bool {
    for ai in &b.insts[i + 1..] {
        if ai.inst.reads_flags() && !ai.prov.is_protection() {
            return true;
        }
        if ai.inst.writes_flags() {
            return false;
        }
    }
    false
}

/// True if the requisition pop at `b[i]` (restoring `g`) is followed by
/// the red-zone verification: `cmpq -8(%rsp), g` then `jne
/// exit_function`, both protection-tagged.
fn red_zone_verified(b: &crate::program::AsmBlock, i: usize, g: Gpr) -> bool {
    let Some(cmp) = b.insts.get(i + 1) else {
        return false;
    };
    let Some(jne) = b.insts.get(i + 2) else {
        return false;
    };
    let cmp_ok = cmp.prov.is_protection()
        && matches!(
            &cmp.inst,
            Inst::Cmp {
                src: Operand::Mem(m),
                dst: Operand::Reg(r),
                ..
            } if m.base == Some(Gpr::Rsp) && m.disp == -8 && r.gpr == g
        );
    let jne_ok = jne.prov.is_protection()
        && matches!(
            &jne.inst,
            Inst::Jcc { cc: Cc::Ne, target } if target == crate::EXIT_FUNCTION
        );
    cmp_ok && jne_ok
}

/// Drops findings that restate the same defect at a dominated program
/// point: if the same contract+explanation-site pair fires in block `a`
/// and in block `b` with `a` dominating `b`, only `a`'s finding is kept.
fn dedupe_by_dominance(cfg: &Cfg, labels: &HashMap<&str, usize>, findings: &mut Vec<LintFinding>) {
    if findings.len() < 2 {
        return;
    }
    let dom = cfg.dominators();
    let mut keep = vec![true; findings.len()];
    for i in 0..findings.len() {
        for j in 0..findings.len() {
            if i == j || !keep[i] || !keep[j] {
                continue;
            }
            let (a, b) = (&findings[i], &findings[j]);
            if a.contract == b.contract
                && a.explanation == b.explanation
                && a.block != b.block
                && dom.dominates(labels[a.block.as_str()], labels[b.block.as_str()])
            {
                keep[j] = false;
            }
        }
    }
    let mut it = keep.iter();
    findings.retain(|_| *it.next().unwrap());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Inst};
    use crate::operand::{MemRef, Operand};
    use crate::program::{AsmBlock, AsmFunction};
    use crate::reg::{Reg, Width, Xmm};

    const P: Provenance =
        Provenance::Protection(TechniqueTag::Ferrum, crate::provenance::Mechanism::Dup);
    const O: Provenance = Provenance::Synthetic;

    fn slot(disp: i64) -> Operand {
        Operand::Mem(MemRef::base_disp(Gpr::Rbp, disp))
    }

    fn load(dst: Gpr) -> Inst {
        Inst::Mov {
            w: Width::W64,
            src: slot(-8),
            dst: Operand::Reg(Reg::q(dst)),
        }
    }

    fn store(src: Gpr) -> Inst {
        Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(Reg::q(src)),
            dst: slot(-16),
        }
    }

    fn xor_rr(src: Gpr, dst: Gpr) -> Inst {
        Inst::Alu {
            op: AluOp::Xor,
            w: Width::W64,
            src: Operand::Reg(Reg::q(src)),
            dst: Operand::Reg(Reg::q(dst)),
        }
    }

    fn jne_exit() -> Inst {
        Inst::Jcc {
            cc: Cc::Ne,
            target: crate::EXIT_FUNCTION.into(),
        }
    }

    fn func(insts: Vec<(Inst, Provenance)>) -> AsmFunction {
        let mut f = AsmFunction::new("main");
        let mut b = AsmBlock::new("entry");
        for (i, p) in insts {
            b.push(i, p);
        }
        f.blocks.push(b);
        f
    }

    fn contracts(fs: &[LintFinding]) -> Vec<LintContract> {
        fs.iter().map(|f| f.contract).collect()
    }

    #[test]
    fn unprotected_function_is_skipped() {
        let f = func(vec![
            (load(Gpr::Rcx), O),
            (store(Gpr::Rcx), O),
            (Inst::Ret, O),
        ]);
        assert!(lint_function(&f).is_empty());
    }

    #[test]
    fn dup_first_scalar_idiom_is_clean() {
        // Fig. 4: duplicate load, original load, xor-compare, checker.
        let f = func(vec![
            (load(Gpr::R10), P),
            (load(Gpr::Rcx), O),
            (xor_rr(Gpr::Rcx, Gpr::R10), P),
            (jne_exit(), P),
            (store(Gpr::Rcx), O),
            (Inst::Ret, O),
        ]);
        assert!(lint_function(&f).is_empty());
    }

    #[test]
    fn dropped_checker_flags_the_consuming_store() {
        // Same idiom, but the `jne exit_function` was removed: the store
        // consumes an unverified result.
        let f = func(vec![
            (load(Gpr::R10), P),
            (load(Gpr::Rcx), O),
            (xor_rr(Gpr::Rcx, Gpr::R10), P),
            (store(Gpr::Rcx), O),
            (Inst::Ret, O),
        ]);
        let fs = lint_function(&f);
        assert_eq!(contracts(&fs), vec![LintContract::CheckedSync]);
        assert_eq!(fs[0].inst_index, 3);
    }

    #[test]
    fn batch_capture_and_drain_is_clean() {
        let f = func(vec![
            (
                Inst::MovqToXmm {
                    src: slot(-8),
                    dst: Xmm::new(2),
                },
                P,
            ),
            (load(Gpr::Rcx), O),
            (
                Inst::MovqToXmm {
                    src: Operand::Reg(Reg::q(Gpr::Rcx)),
                    dst: Xmm::new(3),
                },
                P,
            ),
            (store(Gpr::Rcx), O),
            (
                Inst::Vpxor128 {
                    a: Xmm::new(3),
                    b: Xmm::new(2),
                    dst: Xmm::new(2),
                },
                P,
            ),
            (
                Inst::Vptest128 {
                    a: Xmm::new(2),
                    b: Xmm::new(2),
                },
                P,
            ),
            (jne_exit(), P),
            (Inst::Ret, O),
        ]);
        assert!(lint_function(&f).is_empty());
    }

    #[test]
    fn batch_slot_reuse_before_drain_is_flagged() {
        let cap = |g: Gpr| Inst::MovqToXmm {
            src: Operand::Reg(Reg::q(g)),
            dst: Xmm::new(2),
        };
        let f = func(vec![
            (load(Gpr::Rcx), O),
            (cap(Gpr::Rcx), P),
            (load(Gpr::Rbx), O),
            (cap(Gpr::Rbx), P), // same slot, not drained yet
            (
                Inst::Vptest128 {
                    a: Xmm::new(2),
                    b: Xmm::new(2),
                },
                P,
            ),
            (jne_exit(), P),
            (Inst::Ret, O),
        ]);
        let fs = lint_function(&f);
        assert_eq!(contracts(&fs), vec![LintContract::BatchIntegrity]);
        assert_eq!(fs[0].inst_index, 3);
    }

    #[test]
    fn undrained_batch_at_ret_is_flagged() {
        let f = func(vec![
            (load(Gpr::Rcx), O),
            (
                Inst::MovqToXmm {
                    src: Operand::Reg(Reg::q(Gpr::Rcx)),
                    dst: Xmm::new(2),
                },
                P,
            ),
            (Inst::Ret, O),
        ]);
        let fs = lint_function(&f);
        assert_eq!(contracts(&fs), vec![LintContract::BatchIntegrity]);
    }

    fn cmp_rr(src: Gpr, dst: Gpr) -> Inst {
        Inst::Cmp {
            w: Width::W64,
            src: Operand::Reg(Reg::q(src)),
            dst: Operand::Reg(Reg::q(dst)),
        }
    }

    fn setcc(dst: Gpr) -> Inst {
        Inst::Setcc {
            cc: Cc::E,
            dst: Operand::Reg(Reg::b(dst)),
        }
    }

    fn pair_check_cmp() -> Inst {
        Inst::Cmp {
            w: Width::W8,
            src: Operand::Reg(Reg::b(Gpr::R12)),
            dst: Operand::Reg(Reg::b(Gpr::R13)),
        }
    }

    /// Deferred-flags function: `cmp` in `entry` consumed by a `jcc` to
    /// `taken`; `check_taken` controls whether the taken-edge recheck is
    /// present (its absence is the SkipEdgeRecheck mutation).
    fn deferred_fn(check_taken: bool) -> AsmFunction {
        let mut f = AsmFunction::new("main");
        let mut entry = AsmBlock::new("entry");
        entry.push(cmp_rr(Gpr::Rcx, Gpr::Rdx), O);
        entry.push(setcc(Gpr::R12), P);
        entry.push(cmp_rr(Gpr::Rcx, Gpr::Rdx), P);
        entry.push(setcc(Gpr::R13), P);
        entry.push(
            Inst::Jcc {
                cc: Cc::E,
                target: "taken".into(),
            },
            O,
        );
        entry.push(pair_check_cmp(), P);
        entry.push(jne_exit(), P);
        let mut fall = AsmBlock::new("fall");
        fall.push(Inst::Ret, O);
        let mut taken = AsmBlock::new("taken");
        if check_taken {
            taken.push(pair_check_cmp(), P);
            taken.push(jne_exit(), P);
        }
        taken.push(Inst::Ret, O);
        f.blocks.push(entry);
        f.blocks.push(fall);
        f.blocks.push(taken);
        f
    }

    #[test]
    fn deferred_pair_checked_on_both_edges_is_clean() {
        assert!(lint_function(&deferred_fn(true)).is_empty());
    }

    #[test]
    fn missing_recheck_on_taken_edge_is_flagged() {
        let fs = lint_function(&deferred_fn(false));
        assert_eq!(contracts(&fs), vec![LintContract::DeferredFlags]);
        assert_eq!(fs[0].block, "taken");
    }

    fn push_r(g: Gpr) -> Inst {
        Inst::Push {
            src: Operand::Reg(Reg::q(g)),
        }
    }

    fn pop_r(g: Gpr) -> Inst {
        Inst::Pop {
            dst: Operand::Reg(Reg::q(g)),
        }
    }

    fn red_zone_cmp(g: Gpr) -> Inst {
        Inst::Cmp {
            w: Width::W64,
            src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
            dst: Operand::Reg(Reg::q(g)),
        }
    }

    #[test]
    fn requisition_with_red_zone_restore_is_clean() {
        let f = func(vec![
            (push_r(Gpr::R12), P),
            (load(Gpr::R12), P), // protection may use the requisitioned reg
            (pop_r(Gpr::R12), P),
            (red_zone_cmp(Gpr::R12), P),
            (jne_exit(), P),
            (Inst::Ret, O),
        ]);
        assert!(lint_function(&f).is_empty());
    }

    #[test]
    fn requisition_pop_without_red_zone_is_flagged() {
        let f = func(vec![
            (push_r(Gpr::R12), P),
            (pop_r(Gpr::R12), P),
            (Inst::Ret, O),
        ]);
        let fs = lint_function(&f);
        assert_eq!(contracts(&fs), vec![LintContract::Requisition]);
    }

    #[test]
    fn original_code_touching_requisitioned_register_is_flagged() {
        let f = func(vec![
            (push_r(Gpr::R12), P),
            (
                Inst::Alu {
                    op: AluOp::Add,
                    w: Width::W64,
                    src: Operand::Reg(Reg::q(Gpr::R12)),
                    dst: Operand::Reg(Reg::q(Gpr::Rax)),
                },
                O,
            ),
            (pop_r(Gpr::R12), P),
            (red_zone_cmp(Gpr::R12), P),
            (jne_exit(), P),
            (Inst::Ret, O),
        ]);
        let fs = lint_function(&f);
        assert!(contracts(&fs).contains(&LintContract::Requisition));
    }

    #[test]
    fn return_with_unrestored_requisition_is_flagged() {
        let f = func(vec![(push_r(Gpr::R12), P), (Inst::Nop, O), (Inst::Ret, O)]);
        let fs = lint_function(&f);
        assert_eq!(contracts(&fs), vec![LintContract::Requisition]);
    }

    #[test]
    fn mid_block_value_save_is_not_a_requisition() {
        // The idiv scheme pushes a live input mid-block and later
        // discards the slot with `add $8, %rsp`; no finding.
        let f = func(vec![
            (Inst::Nop, O), // ends the block prologue
            (push_r(Gpr::Rdx), P),
            (
                Inst::Alu {
                    op: AluOp::Add,
                    w: Width::W64,
                    src: Operand::Imm(8),
                    dst: Operand::Reg(Reg::q(Gpr::Rsp)),
                },
                P,
            ),
            (Inst::Ret, O),
        ]);
        assert!(lint_function(&f).is_empty());
    }

    #[test]
    fn unprotected_consumed_compare_is_flagged_under_ferrum() {
        let mut f = AsmFunction::new("main");
        let mut entry = AsmBlock::new("entry");
        // Something FERRUM-protected elsewhere in the function...
        entry.push(load(Gpr::R10), P);
        entry.push(load(Gpr::Rcx), O);
        entry.push(xor_rr(Gpr::Rcx, Gpr::R10), P);
        entry.push(jne_exit(), P);
        // ...but this consumed compare has no deferred protection.
        entry.push(cmp_rr(Gpr::Rcx, Gpr::Rdx), O);
        entry.push(
            Inst::Jcc {
                cc: Cc::E,
                target: "out".into(),
            },
            O,
        );
        let mut out = AsmBlock::new("out");
        out.push(Inst::Ret, O);
        f.blocks.push(entry);
        f.blocks.push(out);
        let fs = lint_function(&f);
        assert_eq!(contracts(&fs), vec![LintContract::DeferredFlags]);
        assert_eq!(fs[0].inst_index, 4);
    }

    #[test]
    fn manifest_flags_original_write_to_reserved_register() {
        let f = func(vec![
            (load(Gpr::R10), P),
            (load(Gpr::Rcx), O),
            (xor_rr(Gpr::Rcx, Gpr::R10), P),
            (jne_exit(), P),
            (store(Gpr::Rcx), O),
            (load(Gpr::R11), O), // original code writes a reserved register
            (Inst::Ret, O),
        ]);
        // Without the manifest the write looks like ordinary original
        // code; the pass's claim is what makes it a violation.
        assert!(lint_function(&f).is_empty());
        let m = ProtectionManifest {
            reserved_gprs: vec![Gpr::R10, Gpr::R11, Gpr::R12],
            accumulators: Vec::new(),
        };
        let fs = lint_function_with(&f, Some(&m));
        assert_eq!(contracts(&fs), vec![LintContract::CheckedSync]);
        assert_eq!(fs[0].inst_index, 5);
    }

    #[test]
    fn manifest_flags_non_protection_write_to_accumulator() {
        let f = func(vec![
            (load(Gpr::R10), P),
            (load(Gpr::Rcx), O),
            (xor_rr(Gpr::Rcx, Gpr::R10), P),
            (jne_exit(), P),
            (store(Gpr::Rcx), O),
            (
                Inst::MovqToXmm {
                    src: Operand::Reg(Reg::q(Gpr::Rcx)),
                    dst: Xmm::new(2),
                },
                O,
            ),
            (Inst::Ret, O),
        ]);
        // %xmm2 is never written by protection code, so inference alone
        // cannot know it is an accumulator.
        assert!(lint_function(&f).is_empty());
        let m = ProtectionManifest {
            reserved_gprs: Vec::new(),
            accumulators: vec![2],
        };
        let fs = lint_function_with(&f, Some(&m));
        assert_eq!(contracts(&fs), vec![LintContract::BatchIntegrity]);
    }

    /// Requisition push tag of the FERRUM pass.
    const REQ: Provenance = Provenance::Protection(
        TechniqueTag::Ferrum,
        crate::provenance::Mechanism::Requisition,
    );

    fn blocks(bs: Vec<(&str, Vec<(Inst, Provenance)>)>) -> AsmFunction {
        let mut f = AsmFunction::new("main");
        for (label, insts) in bs {
            let mut b = AsmBlock::new(label);
            for (i, p) in insts {
                b.push(i, p);
            }
            f.blocks.push(b);
        }
        f
    }

    fn jump(cc: Option<Cc>, target: &str) -> Inst {
        let target = target.into();
        match cc {
            Some(cc) => Inst::Jcc { cc, target },
            None => Inst::Jmp { target },
        }
    }

    /// Each finding as (contract, block, instruction, explanation).
    fn places(fs: &[LintFinding]) -> Vec<(LintContract, &str, usize, &str)> {
        fs.iter()
            .map(|f| {
                (
                    f.contract,
                    f.block.as_str(),
                    f.inst_index,
                    f.explanation.as_str(),
                )
            })
            .collect()
    }

    #[test]
    fn fixpoint_cap_still_reports_a_loop_that_never_pops() {
        // Each trip round `head` pushes once more, so its entry stack
        // grows without bound and only the round cap ends the fixpoint.
        let add = Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            src: Operand::Imm(1),
            dst: Operand::Reg(Reg::q(Gpr::Rax)),
        };
        let f = blocks(vec![
            ("entry", vec![(load(Gpr::Rcx), P)]),
            (
                "head",
                vec![
                    (push_r(Gpr::R12), REQ),
                    (add, O),
                    (jump(Some(Cc::L), "head"), O),
                ],
            ),
            ("out", vec![(Inst::Ret, O)]),
        ]);
        let consumes = |what: &str| {
            format!(
                "`{what}` consumes unverified result in Rax \
                 (site at block 1 inst 1, no checker in between)"
            )
        };
        let (add_consumes, ret_consumes) = (consumes("addq $1, %rax"), consumes("ret"));
        assert_eq!(
            places(&lint_function(&f)),
            vec![
                (
                    LintContract::Requisition,
                    "entry",
                    0,
                    "requisition stack unbalanced across paths into `head`"
                ),
                (LintContract::CheckedSync, "head", 1, add_consumes.as_str()),
                (
                    LintContract::Requisition,
                    "head",
                    2,
                    "requisition stack unbalanced across paths into `out`"
                ),
                (LintContract::CheckedSync, "out", 0, ret_consumes.as_str()),
                (
                    LintContract::Requisition,
                    "out",
                    0,
                    "function returns with requisitioned registers still saved"
                ),
            ]
        );
    }

    #[test]
    fn unbalanced_requisition_stacks_at_a_join_are_flagged() {
        let f = blocks(vec![
            (
                "entry",
                vec![
                    (
                        Inst::Cmp {
                            w: Width::W64,
                            src: Operand::Imm(0),
                            dst: Operand::Reg(Reg::q(Gpr::Rdi)),
                        },
                        O,
                    ),
                    (jump(Some(Cc::E), "skip"), O),
                ],
            ),
            (
                "saves",
                vec![(push_r(Gpr::R12), REQ), (jump(None, "join"), O)],
            ),
            ("skip", vec![(Inst::Nop, O)]),
            ("join", vec![(Inst::Ret, O)]),
        ]);
        assert_eq!(
            places(&lint_function(&f)),
            vec![
                (
                    LintContract::DeferredFlags,
                    "entry",
                    0,
                    "`cmpq $0, %rdi` feeds a branch/setcc but is not protected by the \
                     deferred setcc-pair idiom"
                ),
                (
                    LintContract::Requisition,
                    "skip",
                    0,
                    "requisition stack unbalanced across paths into `join`"
                ),
                (
                    LintContract::Requisition,
                    "join",
                    0,
                    "function returns with requisitioned registers still saved"
                ),
            ]
        );
    }

    #[test]
    fn report_aggregates_across_functions() {
        let mut p = AsmProgram::default();
        p.functions.push(deferred_fn(true));
        p.functions.push(deferred_fn(false));
        let rep = lint_program(&p);
        assert_eq!(rep.functions_scanned, 2);
        assert!(!rep.is_clean());
        assert_eq!(rep.by_contract(LintContract::DeferredFlags).count(), 1);
        assert_eq!(rep.by_contract(LintContract::CheckedSync).count(), 0);
    }
}
