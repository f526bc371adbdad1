//! Static per-site vulnerability analysis: an ACE-style coverage map
//! that decides fault-injection outcomes *before* running the injector.
//!
//! The paper measures FERRUM's coverage empirically by injecting
//! thousands of single-bit faults per benchmark.  Much of that budget
//! is provably redundant: for a large fraction of (instruction ×
//! destination-byte) sites the outcome is statically decidable from
//! the very structure FERRUM itself relies on — a flipped byte that is
//! dead before its next use is architecturally masked, and a flipped
//! byte whose every def-to-use path flows into a protection checker is
//! guaranteed to be detected.  This module classifies every injectable
//! site of an [`AsmProgram`] into a [`StaticVerdict`] and rolls the
//! verdicts up into a [`CoverageMap`] that a campaign plan
//! (`ferrum_faultsim::Campaign::prune`) uses to skip
//! statically-decided injections.
//!
//! # Site model
//!
//! The map mirrors the injector exactly.  A *site* is one instruction
//! with an injectable destination ([`Inst::injectable_bits`]); the
//! injector flips `raw_bit % bits` of that destination at write-back.
//! Eight bit flips within one byte corrupt the same byte with eight
//! different non-zero deltas, and every claim this analysis makes is
//! delta-independent, so the verdict unit is the **byte**:
//! a site with `bits` injectable bits carries `bits / 8` verdicts
//! (RFLAGS sites, 4 condition bits, carry a single unit).  The
//! dynamic fault `FaultSpec { dyn_index, raw_bit }` maps onto
//! [`SiteCoverage::verdict_for`] through the instruction's flat
//! program counter.
//!
//! # Soundness doctrine
//!
//! `Masked` and `Detected` are *load-bearing*: the pruned campaign
//! engine books them as `Benign`/`Detected` without executing, so a
//! wrong claim silently corrupts measured SDC probabilities.  Both
//! verdicts therefore rest on an **exact taint** argument, not a
//! conservative one:
//!
//! * The golden run completed, so every protection check compared
//!   equal operands at every dynamic instance (its `jne exit_function`
//!   was never taken).
//! * A single-byte flip makes the tainted byte differ from golden by a
//!   non-zero delta.  The scan tracks the *exact* set of bytes that
//!   differ, propagating only through operations that preserve the
//!   per-byte non-zero-delta invariant (register-width moves, SIMD
//!   lane inserts, one-side-tainted XORs) and bailing to `Unknown` the
//!   moment exactness would be lost (tainted stores, arithmetic,
//!   both-sides-tainted combines, unrecognised control flow).
//! * `Detected`: a checker (`cmp`/`xor` + `jne exit_function`, or
//!   `vptest reg, reg` + `jne exit_function`) consumes exactly one
//!   tainted operand — golden equality plus a non-zero delta forces
//!   the branch to fire.
//! * `Masked`: the tainted bytes are dead (per byte-granular
//!   [`Liveness`]) or fully overwritten with golden values before any
//!   instruction reads them — execution is bit-identical thereafter.
//!
//! `Vulnerable` (a non-protection instruction consumed the corrupted
//! value) and `Unknown` are advisory only; the injector still runs
//! those sites.

use std::collections::BTreeMap;

use crate::analysis::cfg::Cfg;
use crate::analysis::lint::ProtectionManifest;
use crate::analysis::liveness::{
    byte_bit, inst_kills, inst_reads, read_bytes, reg_bytes, ByteSet, Liveness,
};
use crate::flags::Cc;
use crate::inst::{AluOp, DestClass, Inst};
use crate::operand::Operand;
use crate::program::{AsmFunction, AsmInst, AsmProgram};
use crate::provenance::{Mechanism, Provenance};
use crate::reg::{Gpr, Width};
use crate::EXIT_FUNCTION;

/// The static outcome class of one fault-site byte.
///
/// Ordered as a lattice of decreasing knowledge: `Masked` and
/// `Detected` are sound guarantees (the pruned engine books them
/// without executing), `Vulnerable` is a structural prediction (the
/// corrupted value reached application computation), `Unknown` is the
/// analysis declining to claim anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StaticVerdict {
    /// The flipped byte is dead or overwritten before any use: the
    /// faulty run is guaranteed bit-identical to golden (`Benign`).
    Masked,
    /// Every path from the flip runs through a protection checker that
    /// is guaranteed to fire: the faulty run exits via
    /// `exit_function` (`Detected`).
    Detected,
    /// A non-protection instruction consumes the corrupted value; the
    /// fault escapes into application state (may still end up benign,
    /// detected later, or an SDC — the injector decides).
    Vulnerable,
    /// The analysis lost exactness (store, arithmetic, unrecognised
    /// control flow) before reaching a decision.
    Unknown,
}

impl StaticVerdict {
    /// All verdicts, in report order.
    pub const ALL: [StaticVerdict; 4] = [
        StaticVerdict::Masked,
        StaticVerdict::Detected,
        StaticVerdict::Vulnerable,
        StaticVerdict::Unknown,
    ];

    /// Stable text label (report and JSON key).
    pub fn label(self) -> &'static str {
        match self {
            StaticVerdict::Masked => "masked",
            StaticVerdict::Detected => "detected",
            StaticVerdict::Vulnerable => "vulnerable",
            StaticVerdict::Unknown => "unknown",
        }
    }

    /// True when the pruned campaign engine may skip the injection.
    pub fn is_decided(self) -> bool {
        matches!(self, StaticVerdict::Masked | StaticVerdict::Detected)
    }
}

impl std::fmt::Display for StaticVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-verdict unit counts, merged bottom-up from sites to functions
/// to the whole program (and per mechanism).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Units proven benign.
    pub masked: usize,
    /// Units proven detected.
    pub detected: usize,
    /// Units escaping into application state.
    pub vulnerable: usize,
    /// Units the analysis declined to classify.
    pub unknown: usize,
}

impl VerdictCounts {
    /// Adds one unit with verdict `v`.
    pub fn add(&mut self, v: StaticVerdict) {
        match v {
            StaticVerdict::Masked => self.masked += 1,
            StaticVerdict::Detected => self.detected += 1,
            StaticVerdict::Vulnerable => self.vulnerable += 1,
            StaticVerdict::Unknown => self.unknown += 1,
        }
    }

    /// Accumulates another rollup into this one.
    pub fn merge(&mut self, o: &VerdictCounts) {
        self.masked += o.masked;
        self.detected += o.detected;
        self.vulnerable += o.vulnerable;
        self.unknown += o.unknown;
    }

    /// Total units counted.
    pub fn total(&self) -> usize {
        self.masked + self.detected + self.vulnerable + self.unknown
    }

    /// The count for one verdict.
    pub fn get(&self, v: StaticVerdict) -> usize {
        match v {
            StaticVerdict::Masked => self.masked,
            StaticVerdict::Detected => self.detected,
            StaticVerdict::Vulnerable => self.vulnerable,
            StaticVerdict::Unknown => self.unknown,
        }
    }

    /// Lower bound on the static-site detection fraction: only the
    /// units *proven* detected count.
    pub fn detection_lower_bound(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.detected as f64 / self.total() as f64
    }

    /// Upper bound on the static-site detection fraction: everything
    /// that is not proven masked could in principle be detected.
    pub fn detection_upper_bound(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        1.0 - self.masked as f64 / self.total() as f64
    }

    /// Fraction of units with a sound (skippable) verdict.
    pub fn decided_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.masked + self.detected) as f64 / self.total() as f64
    }
}

/// The verdicts for one injectable instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteCoverage {
    /// Flat program counter of the instruction (matches
    /// `ferrum_cpu::Image` load order: functions → blocks →
    /// instructions, in declaration order).
    pub pc: usize,
    /// Injectable destination width in bits
    /// ([`Inst::injectable_bits`]); the injector flips
    /// `raw_bit % bits`.
    pub bits: u32,
    /// Provenance of the instruction (mechanism rollups key off this).
    pub prov: Provenance,
    /// One verdict per destination byte, indexed `flipped_bit / 8`
    /// (RFLAGS sites carry a single unit).
    pub verdicts: Vec<StaticVerdict>,
}

impl SiteCoverage {
    /// The verdict governing an injector bit choice, mirroring
    /// `apply_fault`: the flipped bit is `raw_bit % bits` and the
    /// verdict unit is its byte.  For `rdx:rax` pair destinations the
    /// selector runs across both halves, so `sel / 8` indexes the
    /// concatenated rax-then-rdx byte units directly.
    pub fn verdict_for(&self, raw_bit: u16) -> StaticVerdict {
        if self.verdicts.len() == 1 {
            return self.verdicts[0];
        }
        let bit = u32::from(raw_bit) % self.bits;
        self.verdicts[(bit / 8) as usize]
    }

    /// Number of verdict units at this site.
    pub fn units(&self) -> usize {
        self.verdicts.len()
    }
}

/// Coverage for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionCoverage {
    /// Function name.
    pub name: String,
    /// Sites in program order.
    pub sites: Vec<SiteCoverage>,
    /// Unit rollup over all of this function's sites.
    pub rollup: VerdictCounts,
}

/// The whole-program static coverage map.
#[derive(Debug, Clone, Default)]
pub struct CoverageMap {
    /// Per-function coverage, in program order.
    pub functions: Vec<FunctionCoverage>,
    /// Flat pc → (function index, site index).
    index: BTreeMap<usize, (u32, u32)>,
}

impl CoverageMap {
    /// Analyses `p` without protection manifests.
    pub fn analyze(p: &AsmProgram) -> CoverageMap {
        CoverageMap::analyze_with(p, None)
    }

    /// Analyses `p`, cross-checking `Detected` claims against
    /// per-function [`ProtectionManifest`]s where available: a scalar
    /// register-register check none of whose operands is a reserved
    /// register, or a batch flush test on a register the manifest does
    /// not list as an accumulator, is demoted to `Unknown` — the
    /// checker is not one the protection pass declared, so the
    /// golden-equality premise is not vouched for.
    pub fn analyze_with(
        p: &AsmProgram,
        manifests: Option<&BTreeMap<String, ProtectionManifest>>,
    ) -> CoverageMap {
        let mut map = CoverageMap::default();
        let mut pc = 0usize;
        for f in &p.functions {
            let manifest = manifests.and_then(|m| m.get(&f.name));
            let fc = analyze_function(f, &mut pc, manifest);
            let fi = map.functions.len() as u32;
            for (si, s) in fc.sites.iter().enumerate() {
                map.index.insert(s.pc, (fi, si as u32));
            }
            map.functions.push(fc);
        }
        map
    }

    /// The site at flat pc `pc`, if that instruction is injectable.
    pub fn site(&self, pc: usize) -> Option<&SiteCoverage> {
        let &(fi, si) = self.index.get(&pc)?;
        Some(&self.functions[fi as usize].sites[si as usize])
    }

    /// The verdict governing a fault at `(pc, raw_bit)`.
    pub fn verdict_at(&self, pc: usize, raw_bit: u16) -> Option<StaticVerdict> {
        self.site(pc).map(|s| s.verdict_for(raw_bit))
    }

    /// Whole-program unit rollup.
    pub fn rollup(&self) -> VerdictCounts {
        let mut c = VerdictCounts::default();
        for f in &self.functions {
            c.merge(&f.rollup);
        }
        c
    }

    /// Unit rollups keyed by emitting mechanism (`None` = application
    /// / glue code), in [`Mechanism::ALL`] order with the application
    /// bucket first.
    pub fn mechanism_rollup(&self) -> Vec<(Option<Mechanism>, VerdictCounts)> {
        let mut buckets: BTreeMap<Option<Mechanism>, VerdictCounts> = BTreeMap::new();
        for f in &self.functions {
            for s in &f.sites {
                let b = buckets.entry(s.prov.mechanism()).or_default();
                for &v in &s.verdicts {
                    b.add(v);
                }
            }
        }
        buckets.into_iter().collect()
    }

    /// Total number of injectable sites (instructions).
    pub fn total_sites(&self) -> usize {
        self.functions.iter().map(|f| f.sites.len()).sum()
    }
}

/// Exact taint: the set of bytes currently differing from the golden
/// run, each by a non-zero delta.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Taint {
    /// GPR bytes (same packing as [`ByteSet`]).
    pub(crate) gpr: ByteSet,
    /// One byte-mask per SIMD register (64 bytes each).
    pub(crate) simd: [u64; 16],
}

impl Taint {
    pub(crate) fn is_clear(&self) -> bool {
        self.gpr == 0 && self.simd_clear()
    }

    pub(crate) fn simd_clear(&self) -> bool {
        self.simd.iter().all(|&m| m == 0)
    }

    fn gpr_view(&self, g: Gpr) -> u128 {
        (self.gpr >> (g.index() * 8)) & 0xff
    }

    fn set_gpr_view(&mut self, g: Gpr, bytes: u128) {
        self.gpr = (self.gpr & !reg_bytes(g)) | (bytes << (g.index() * 8));
    }
}

/// Byte-exact SIMD reads of `inst` as `(register index, byte mask)`.
pub(crate) fn simd_reads(inst: &Inst) -> Vec<(u8, u64)> {
    const X: u64 = 0xffff; // 16 bytes
    const Y: u64 = 0xffff_ffff; // 32 bytes
    match inst {
        Inst::MovqFromXmm { src, .. } => vec![(src.0, 0xff)],
        Inst::Pextrq { lane, src, .. } => vec![(src.0, 0xffu64 << (8 * lane))],
        Inst::Vinserti128 { src, src2, .. } => vec![(src.0, X), (src2.0, Y)],
        Inst::Vpxor { a, b, .. } | Inst::Vptest { a, b } => vec![(a.0, Y), (b.0, Y)],
        Inst::Vpxor128 { a, b, .. } | Inst::Vptest128 { a, b } => vec![(a.0, X), (b.0, X)],
        Inst::Vinserti64x4 { src, src2, .. } => vec![(src.0, Y), (src2.0, u64::MAX)],
        Inst::Vpxor512 { a, b, .. } | Inst::Vptest512 { a, b } => {
            vec![(a.0, u64::MAX), (b.0, u64::MAX)]
        }
        _ => vec![],
    }
}

/// Byte-exact SIMD write masks of `inst`, matching the machine's
/// write-back semantics (`movq` zeroes lane 1 and preserves the upper
/// lanes; the VEX 128-bit form zeroes *all* upper bytes; `pinsrq`
/// writes only its lane).  When the instruction's inputs are
/// untainted the written bytes become golden, so these masks are also
/// the taint-kill masks.
pub(crate) fn simd_writes(inst: &Inst) -> Vec<(u8, u64)> {
    const X: u64 = 0xffff;
    const Y: u64 = 0xffff_ffff;
    match inst {
        Inst::MovqToXmm { dst, .. } => vec![(dst.0, X)],
        Inst::Pinsrq { lane, dst, .. } => vec![(dst.0, 0xffu64 << (8 * lane))],
        Inst::Vinserti128 { dst, .. } | Inst::Vpxor { dst, .. } => vec![(dst.0, Y)],
        Inst::Vpxor128 { dst, .. } => vec![(dst.0, u64::MAX)],
        Inst::Vinserti64x4 { dst, .. } | Inst::Vpxor512 { dst, .. } => vec![(dst.0, u64::MAX)],
        _ => vec![],
    }
}

/// True when any memory operand of `inst` computes its address from a
/// tainted register (the access would diverge — exactness is lost).
fn mem_address_tainted(inst: &Inst, taint: &Taint) -> bool {
    let mem_regs = |op: &Operand, set: &mut ByteSet| {
        if let Operand::Mem(m) = op {
            for g in m.regs_read() {
                *set |= reg_bytes(g);
            }
        }
    };
    let mut set: ByteSet = 0;
    match inst {
        Inst::Mov { src, dst, .. }
        | Inst::Alu { src, dst, .. }
        | Inst::Cmp { src, dst, .. }
        | Inst::Test { src, dst, .. } => {
            mem_regs(src, &mut set);
            mem_regs(dst, &mut set);
        }
        Inst::Movsx { src, .. } | Inst::Movzx { src, .. } => mem_regs(src, &mut set),
        Inst::Unary { dst, .. } | Inst::Shift { dst, .. } | Inst::Setcc { dst, .. } => {
            mem_regs(dst, &mut set);
        }
        Inst::Imul { src, .. } | Inst::Idiv { src, .. } => mem_regs(src, &mut set),
        Inst::Lea { mem, .. } => {
            for g in mem.regs_read() {
                set |= reg_bytes(g);
            }
        }
        Inst::Push { src } => mem_regs(src, &mut set),
        Inst::Pop { dst } => mem_regs(dst, &mut set),
        Inst::MovqToXmm { src, .. } | Inst::Pinsrq { src, .. } => mem_regs(src, &mut set),
        _ => {}
    }
    set & taint.gpr != 0
}

/// True when the *value* of operand `op` (read at width `w`) carries
/// taint.  Memory values are never tainted: the scan bails at any
/// tainted store, so memory in the scanned region is golden.
fn value_taint(op: &Operand, w: Width, taint: &Taint) -> bool {
    match op {
        Operand::Reg(r) => taint.gpr & read_bytes(r.gpr, w) != 0,
        Operand::Imm(_) | Operand::Mem(_) => false,
    }
}

/// True when `block[i + 1]` is a protection `jne exit_function` — the
/// second half of every FERRUM/EDDI checker idiom.
fn next_is_exit_check(block: &[AsmInst], i: usize) -> bool {
    matches!(
        block.get(i + 1),
        Some(AsmInst {
            inst: Inst::Jcc { cc: Cc::Ne, target },
            prov,
        }) if prov.is_protection() && target == EXIT_FUNCTION
    )
}

/// One step of the scan at a protection instruction that reads taint.
pub(crate) enum Step {
    /// A checker is guaranteed to fire: the site is detected.
    Detected,
    /// Exact propagation succeeded; continue with the new taint.
    Keep(Taint),
    /// Exactness lost.
    Bail,
}

/// Handles a protection instruction consuming tainted data: recognise
/// the checker idioms (→ [`Step::Detected`]), propagate through
/// exactness-preserving data movement, or bail.
pub(crate) fn protection_step(block: &[AsmInst], i: usize, taint: &Taint) -> Step {
    let inst = &block[i].inst;
    if mem_address_tainted(inst, taint) {
        return Step::Bail;
    }
    match inst {
        // Scalar checker: `cmp`/`xor` with exactly one tainted operand
        // followed by `jne exit_function`.  Golden operands were equal
        // at every dynamic instance (the program completed), and the
        // tainted operand differs by a non-zero delta within the
        // compared width, so the branch must fire.
        Inst::Cmp { w, src, dst }
        | Inst::Alu {
            op: AluOp::Xor,
            w,
            src,
            dst,
        } => {
            let st = value_taint(src, *w, taint);
            let dt = value_taint(dst, *w, taint);
            if st != dt && next_is_exit_check(block, i) {
                Step::Detected
            } else {
                Step::Bail
            }
        }
        // Batch flush test: `vptest r, r` + `jne exit_function`.
        // Golden ZF was always set, so the golden accumulator is zero;
        // the tainted byte makes it non-zero and the branch fires.
        // Distinct operands give no such guarantee.
        Inst::Vptest { a, b } if a == b => {
            if next_is_exit_check(block, i) {
                Step::Detected
            } else {
                Step::Bail
            }
        }
        Inst::Vptest128 { a, b } if a == b => {
            if next_is_exit_check(block, i) {
                Step::Detected
            } else {
                Step::Bail
            }
        }
        Inst::Vptest512 { a, b } if a == b => {
            if next_is_exit_check(block, i) {
                Step::Detected
            } else {
                Step::Bail
            }
        }
        // Register-to-register move: exact byte-wise taint transfer
        // (W64 replaces, W32 zero-extends — both kill all eight
        // destination bytes; W16/W8 merge into the low bytes).
        Inst::Mov {
            w,
            src: Operand::Reg(s),
            dst: Operand::Reg(d),
        } => {
            let low: u128 = match w {
                Width::W8 => 0x01,
                Width::W16 => 0x03,
                Width::W32 => 0x0f,
                Width::W64 => 0xff,
            };
            let moved = taint.gpr_view(s.gpr) & low;
            let mut t = taint.clone();
            t.gpr &= !crate::analysis::liveness::kill_bytes(d.gpr, *w);
            t.gpr |= moved << (d.gpr.index() * 8);
            Step::Keep(t)
        }
        // GPR → XMM lane 0 (`movq`): lane 0 takes the source bytes,
        // lane 1 is zeroed (golden), upper lanes are preserved.
        Inst::MovqToXmm {
            src: Operand::Reg(s),
            dst,
        } => {
            let moved = (taint.gpr_view(s.gpr) & 0xff) as u64;
            let mut t = taint.clone();
            t.simd[dst.0 as usize] = (t.simd[dst.0 as usize] & !0xffffu64) | moved;
            Step::Keep(t)
        }
        // GPR → XMM lane insert: writes exactly the 8-byte lane.
        Inst::Pinsrq {
            lane,
            src: Operand::Reg(s),
            dst,
        } => {
            let moved = (taint.gpr_view(s.gpr) & 0xff) as u64;
            let mut t = taint.clone();
            let m = 0xffu64 << (8 * lane);
            t.simd[dst.0 as usize] = (t.simd[dst.0 as usize] & !m) | (moved << (8 * lane));
            Step::Keep(t)
        }
        // XMM lane → GPR (W64 destination kills all eight bytes).
        Inst::MovqFromXmm { src, dst } => {
            let moved = (taint.simd[src.0 as usize] & 0xff) as u128;
            let mut t = taint.clone();
            t.set_gpr_view(dst.gpr, moved);
            Step::Keep(t)
        }
        Inst::Pextrq { lane, src, dst } => {
            let moved = ((taint.simd[src.0 as usize] >> (8 * lane)) & 0xff) as u128;
            let mut t = taint.clone();
            t.set_gpr_view(dst.gpr, moved);
            Step::Keep(t)
        }
        // 128-bit lane merge into a YMM: exact byte shuffle; the top
        // 32 bytes of the destination register are preserved.
        Inst::Vinserti128 {
            lane,
            src,
            src2,
            dst,
        } => {
            let xs = taint.simd[src.0 as usize] & 0xffff;
            let ys = taint.simd[src2.0 as usize] & 0xffff_ffff;
            let merged = (ys & !(0xffffu64 << (16 * lane))) | (xs << (16 * lane));
            let mut t = taint.clone();
            t.simd[dst.0 as usize] = (t.simd[dst.0 as usize] & !0xffff_ffffu64) | merged;
            Step::Keep(t)
        }
        // 256-bit lane merge into a ZMM: writes all 64 bytes.
        Inst::Vinserti64x4 {
            lane,
            src,
            src2,
            dst,
        } => {
            let ys = taint.simd[src.0 as usize] & 0xffff_ffff;
            let zs = taint.simd[src2.0 as usize];
            let mut t = taint.clone();
            t.simd[dst.0 as usize] = (zs & !(0xffff_ffffu64 << (32 * lane))) | (ys << (32 * lane));
            Step::Keep(t)
        }
        // One-side-per-byte tainted XOR: each tainted result byte
        // differs by exactly the one operand's delta (non-zero).  A
        // byte tainted on *both* sides could cancel — bail.
        Inst::Vpxor { a, b, dst } => {
            let at = taint.simd[a.0 as usize] & 0xffff_ffff;
            let bt = taint.simd[b.0 as usize] & 0xffff_ffff;
            if at & bt != 0 {
                return Step::Bail;
            }
            let mut t = taint.clone();
            t.simd[dst.0 as usize] = (t.simd[dst.0 as usize] & !0xffff_ffffu64) | at | bt;
            Step::Keep(t)
        }
        Inst::Vpxor128 { a, b, dst } => {
            let at = taint.simd[a.0 as usize] & 0xffff;
            let bt = taint.simd[b.0 as usize] & 0xffff;
            if at & bt != 0 {
                return Step::Bail;
            }
            let mut t = taint.clone();
            // VEX semantics zero every upper byte of the destination.
            t.simd[dst.0 as usize] = at | bt;
            Step::Keep(t)
        }
        Inst::Vpxor512 { a, b, dst } => {
            let at = taint.simd[a.0 as usize];
            let bt = taint.simd[b.0 as usize];
            if at & bt != 0 {
                return Step::Bail;
            }
            let mut t = taint.clone();
            t.simd[dst.0 as usize] = at | bt;
            Step::Keep(t)
        }
        _ => Step::Bail,
    }
}

/// Verdict when the scan stops at position `i` with taint still held:
/// `Masked` iff every tainted byte is provably dead from here on (no
/// SIMD taint — SIMD registers have no liveness — and no GPR taint
/// byte in the live-after set).
fn bail_verdict(taint: &Taint, live_after: ByteSet) -> StaticVerdict {
    if taint.simd_clear() && taint.gpr & live_after == 0 {
        StaticVerdict::Masked
    } else {
        StaticVerdict::Unknown
    }
}

/// Scans forward from `start` within one block, tracking the exact
/// tainted-byte set seeded at the fault site.
fn scan(block: &[AsmInst], after: &[ByteSet], start: usize, mut taint: Taint) -> StaticVerdict {
    let mut i = start;
    loop {
        if taint.is_clear() {
            // Every corrupted byte was overwritten with its golden
            // value: the runs have converged.
            return StaticVerdict::Masked;
        }
        if i >= block.len() {
            return bail_verdict(&taint, after[block.len() - 1]);
        }
        let ai = &block[i];
        let inst = &ai.inst;

        let reads_taint = inst_reads(inst) & taint.gpr != 0
            || simd_reads(inst)
                .iter()
                .any(|&(r, m)| taint.simd[r as usize] & m != 0);

        if reads_taint {
            if !ai.prov.is_protection() {
                return StaticVerdict::Vulnerable;
            }
            match protection_step(block, i, &taint) {
                Step::Detected => return StaticVerdict::Detected,
                Step::Keep(t) => taint = t,
                // The instruction consumed tainted data in a way the
                // propagation rules don't model (a store, arithmetic,
                // a cancelling combine): the corruption may now live
                // in memory or flags, so deadness of the *registers*
                // proves nothing — never claim Masked here.
                Step::Bail => return StaticVerdict::Unknown,
            }
        } else {
            // Untainted operands: the instruction computes exactly the
            // golden values, so its writes are exact taint kills.
            match inst {
                Inst::Jcc { cc: Cc::Ne, target }
                    if ai.prov.is_protection() && target == EXIT_FUNCTION =>
                {
                    // Flags are untainted (any tainted flag-writer
                    // would have detected or bailed above), so this
                    // checker branch falls through exactly as in the
                    // golden run.
                }
                Inst::Jcc { .. } | Inst::Jmp { .. } | Inst::Ret => {
                    // Control leaves the straight-line region on the
                    // golden path; the liveness bail rule covers every
                    // successor path.
                    return bail_verdict(&taint, after[i]);
                }
                Inst::Call { .. } => {
                    // The callee may spill callee-saved registers or
                    // merge SIMD accumulator lanes we cannot see from
                    // here; only a fully-converged state may cross.
                    return bail_verdict(&taint, after[i]);
                }
                _ => {
                    taint.gpr &= !inst_kills(inst);
                    for (r, m) in simd_writes(inst) {
                        taint.simd[r as usize] &= !m;
                    }
                }
            }
        }
        i += 1;
    }
}

/// Classifies one destination byte of a GPR-writing site.
fn classify_gpr_byte(
    block: &[AsmInst],
    after: &[ByteSet],
    i: usize,
    g: Gpr,
    byte: u8,
) -> StaticVerdict {
    if byte_bit(g, byte) & after[i] == 0 {
        // Dead at write-back: the corrupted byte is overwritten on
        // every path before any read.
        return StaticVerdict::Masked;
    }
    let taint = Taint {
        gpr: byte_bit(g, byte),
        ..Taint::default()
    };
    scan(block, after, i + 1, taint)
}

/// Classifies one destination byte of a SIMD-writing site (no SIMD
/// liveness exists, so masking is only discovered by the scan's exact
/// overwrite tracking).
fn classify_simd_byte(
    block: &[AsmInst],
    after: &[ByteSet],
    i: usize,
    reg: u8,
    byte: u8,
) -> StaticVerdict {
    let mut taint = Taint::default();
    taint.simd[reg as usize] = 1u64 << byte;
    scan(block, after, i + 1, taint)
}

/// True when a `Detected` claim at `block[i]` is consistent with the
/// protection pass's own manifest: scalar register-register checks
/// must involve a reserved register, and batch flush tests must test a
/// declared accumulator.  Checks with a memory operand (red-zone
/// verification) involve no reserved register by design.
fn detection_matches_manifest(inst: &Inst, m: &ProtectionManifest) -> bool {
    match inst {
        Inst::Cmp { src, dst, .. } | Inst::Alu { src, dst, .. } => {
            if m.reserved_gprs.is_empty() {
                return true; // requisition mode: checks use app regs + red zone
            }
            match (src, dst) {
                (Operand::Reg(a), Operand::Reg(b)) => {
                    m.reserved_gprs.contains(&a.gpr) || m.reserved_gprs.contains(&b.gpr)
                }
                _ => true,
            }
        }
        Inst::Vptest { a, .. } => m.accumulators.is_empty() || m.accumulators.contains(&a.0),
        Inst::Vptest128 { a, .. } => m.accumulators.is_empty() || m.accumulators.contains(&a.0),
        Inst::Vptest512 { a, .. } => m.accumulators.is_empty() || m.accumulators.contains(&a.0),
        _ => true,
    }
}

/// When a manifest is available, demote `Detected` verdicts whose
/// deciding checker the manifest does not vouch for.  The deciding
/// checker is re-discovered by re-running the scan; demotion is rare
/// (it indicates a disagreement between the pass and the analysis),
/// so the cost does not matter.
fn validate_against_manifest(
    verdict: StaticVerdict,
    block: &[AsmInst],
    manifest: Option<&ProtectionManifest>,
) -> StaticVerdict {
    let Some(m) = manifest else { return verdict };
    if verdict != StaticVerdict::Detected {
        return verdict;
    }
    // Every checker idiom the scan can credit lives in this block;
    // accept the claim iff *some* manifest-consistent checker exists.
    let any_consistent = block.iter().enumerate().any(|(i, ai)| {
        ai.prov.is_protection()
            && next_is_exit_check(block, i)
            && detection_matches_manifest(&ai.inst, m)
    });
    if any_consistent {
        verdict
    } else {
        StaticVerdict::Unknown
    }
}

/// Classifies every injectable site of `f`, advancing the flat `pc`.
fn analyze_function(
    f: &AsmFunction,
    pc: &mut usize,
    manifest: Option<&ProtectionManifest>,
) -> FunctionCoverage {
    let cfg = Cfg::build(f);
    let lv = Liveness::compute(f, &cfg);
    let mut sites = Vec::new();
    let mut rollup = VerdictCounts::default();
    for (bi, b) in f.blocks.iter().enumerate() {
        let after = lv.live_after_each(f, bi);
        for (i, ai) in b.insts.iter().enumerate() {
            let this_pc = *pc;
            *pc += 1;
            let Some(bits) = ai.inst.injectable_bits() else {
                continue;
            };
            let verdicts: Vec<StaticVerdict> = match ai.inst.dest_class() {
                DestClass::Gpr(r) => (0..r.width.bytes() as u8)
                    .map(|byte| classify_gpr_byte(&b.insts, &after, i, r.gpr, byte))
                    .collect(),
                DestClass::RaxRdxPair(w) => {
                    let nb = w.bytes() as u8;
                    (0..2 * nb)
                        .map(|k| {
                            let (g, byte) = if k < nb {
                                (Gpr::Rax, k)
                            } else {
                                (Gpr::Rdx, k - nb)
                            };
                            classify_gpr_byte(&b.insts, &after, i, g, byte)
                        })
                        .collect()
                }
                DestClass::Rflags => vec![StaticVerdict::Unknown],
                DestClass::Xmm(x) => (0..16u8)
                    .map(|byte| classify_simd_byte(&b.insts, &after, i, x.0, byte))
                    .collect(),
                DestClass::Ymm(y) => (0..32u8)
                    .map(|byte| classify_simd_byte(&b.insts, &after, i, y.0, byte))
                    .collect(),
                DestClass::Zmm(z) => (0..64u8)
                    .map(|byte| classify_simd_byte(&b.insts, &after, i, z.0, byte))
                    .collect(),
                DestClass::None => continue,
            };
            let verdicts: Vec<StaticVerdict> = verdicts
                .into_iter()
                .map(|v| validate_against_manifest(v, &b.insts, manifest))
                .collect();
            for &v in &verdicts {
                rollup.add(v);
            }
            sites.push(SiteCoverage {
                pc: this_pc,
                bits,
                prov: ai.prov,
                verdicts,
            });
        }
    }
    FunctionCoverage {
        name: f.name.clone(),
        sites,
        rollup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::operand::MemRef;
    use crate::program::{AsmBlock, AsmFunction, AsmProgram};
    use crate::provenance::TechniqueTag;
    use crate::reg::Reg;

    fn prot(inst: Inst) -> AsmInst {
        AsmInst::new(
            inst,
            Provenance::Protection(TechniqueTag::Ferrum, Mechanism::Check),
        )
    }

    fn app(inst: Inst) -> AsmInst {
        AsmInst::synthetic(inst)
    }

    fn program(insts: Vec<AsmInst>) -> AsmProgram {
        let mut b = AsmBlock::new("entry");
        b.insts = insts;
        let mut f = AsmFunction::new("main");
        f.blocks.push(b);
        let mut p = AsmProgram::new();
        p.functions.push(f);
        p
    }

    fn mov64(s: Gpr, d: Gpr) -> Inst {
        Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(Reg::q(s)),
            dst: Operand::Reg(Reg::q(d)),
        }
    }

    #[test]
    fn dead_destination_is_masked() {
        // r10 is written and immediately overwritten before the
        // terminator; every byte of the first write is dead.
        let p = program(vec![
            app(Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::q(Gpr::R10)),
            }),
            app(Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(8),
                dst: Operand::Reg(Reg::q(Gpr::R10)),
            }),
            app(Inst::Ret),
        ]);
        let map = CoverageMap::analyze(&p);
        let site = map.site(0).expect("site at pc 0");
        assert_eq!(site.verdicts, vec![StaticVerdict::Masked; 8]);
    }

    #[test]
    fn checked_duplicate_is_detected() {
        // The canonical FERRUM idiom: dup into r10, use rax, then
        // cmp r10, rax + jne exit_function.  A flip in the dup is
        // caught by the checker.
        let p = program(vec![
            app(Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            prot(mov64(Gpr::Rax, Gpr::R10)),
            prot(Inst::Cmp {
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::R10)),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            prot(Inst::Jcc {
                cc: Cc::Ne,
                target: EXIT_FUNCTION.into(),
            }),
            app(Inst::Ret),
        ]);
        let map = CoverageMap::analyze(&p);
        let dup = map.site(1).expect("dup site");
        assert_eq!(dup.verdicts, vec![StaticVerdict::Detected; 8]);
    }

    #[test]
    fn app_consumption_is_vulnerable() {
        // rax feeds an application add before any checker sees it.
        let p = program(vec![
            app(Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            app(Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: Operand::Reg(Reg::q(Gpr::Rcx)),
            }),
            app(Inst::Push {
                src: Operand::Reg(Reg::q(Gpr::Rcx)),
            }),
            app(Inst::Ret),
        ]);
        let map = CoverageMap::analyze(&p);
        let site = map.site(0).expect("site");
        assert_eq!(site.verdicts, vec![StaticVerdict::Vulnerable; 8]);
    }

    #[test]
    fn tainted_store_is_unknown() {
        // A flip in rax escapes through a protection push (a store):
        // exactness is lost, and rax stays live past the block.
        let p = program(vec![
            app(Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            prot(Inst::Push {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            app(Inst::Ret),
        ]);
        let map = CoverageMap::analyze(&p);
        let site = map.site(0).expect("site");
        assert_eq!(site.verdicts, vec![StaticVerdict::Unknown; 8]);
    }

    #[test]
    fn copy_after_shadow_is_not_credited_but_dup_site_is() {
        // EDDI-style copy-*after*: the shadow is a copy of the result,
        // so a flip at the original propagates into the shadow and the
        // compare passes — the analysis must not claim detection for
        // the original (both compare operands are tainted → bail).
        // The shadow copy itself, though, is checked one-sided.
        let p = program(vec![
            app(Inst::Mov {
                w: Width::W32,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::l(Gpr::Rax)),
            }),
            prot(Inst::Mov {
                w: Width::W32,
                src: Operand::Reg(Reg::l(Gpr::Rax)),
                dst: Operand::Reg(Reg::l(Gpr::R10)),
            }),
            prot(Inst::Cmp {
                w: Width::W32,
                src: Operand::Reg(Reg::l(Gpr::R10)),
                dst: Operand::Reg(Reg::l(Gpr::Rax)),
            }),
            prot(Inst::Jcc {
                cc: Cc::Ne,
                target: EXIT_FUNCTION.into(),
            }),
            app(Inst::Push {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            app(Inst::Ret),
        ]);
        let map = CoverageMap::analyze(&p);
        let orig = map.site(0).expect("w32 producer site");
        assert_eq!(orig.bits, 32);
        assert_eq!(orig.verdicts, vec![StaticVerdict::Unknown; 4]);
        let dup = map.site(1).expect("w32 shadow-copy site");
        assert_eq!(dup.bits, 32);
        assert_eq!(dup.verdicts, vec![StaticVerdict::Detected; 4]);
    }

    #[test]
    fn simd_capture_chain_is_detected() {
        // Batched idiom: two captures into xmm0/xmm1 lanes, xor, test,
        // jne.  A flip in the captured scratch register is caught.
        let p = program(vec![
            app(Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::q(Gpr::R10)),
            }),
            prot(Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::R10)),
                dst: crate::reg::Xmm(0),
            }),
            prot(Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(Gpr::R10)),
                dst: crate::reg::Xmm(1),
            }),
            prot(Inst::Vpxor128 {
                a: crate::reg::Xmm(0),
                b: crate::reg::Xmm(1),
                dst: crate::reg::Xmm(2),
            }),
            prot(Inst::Vptest128 {
                a: crate::reg::Xmm(2),
                b: crate::reg::Xmm(2),
            }),
            prot(Inst::Jcc {
                cc: Cc::Ne,
                target: EXIT_FUNCTION.into(),
            }),
            app(Inst::Ret),
        ]);
        let map = CoverageMap::analyze(&p);
        // The first capture's XMM destination: a flip in lane 0 or the
        // zeroed lane 1 reaches the vptest; upper bytes are dead in
        // this chain only via the vpxor128 write-back, which doesn't
        // touch xmm0 — they stay Unknown.
        let cap = map.site(1).expect("capture site");
        assert_eq!(cap.bits, 128);
        for byte in 0..16 {
            assert_eq!(
                cap.verdicts[byte],
                StaticVerdict::Detected,
                "xmm byte {byte}"
            );
        }
        // Both-sides-tainted xor: a flip in the *scratch* register
        // feeds both captures → the xor deltas cancel; the analysis
        // must NOT claim detection for r10's site once both captures
        // read it.  (Site 0 is the r10 write.)
        let r10 = map.site(0).expect("r10 site");
        assert!(
            r10.verdicts.iter().all(|&v| v != StaticVerdict::Detected),
            "cancelling xor must not be credited: {:?}",
            r10.verdicts
        );
    }

    #[test]
    fn pair_and_flags_units_map_raw_bits() {
        let p = program(vec![
            app(Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(9),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            app(Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(3),
                dst: Operand::Reg(Reg::q(Gpr::Rcx)),
            }),
            app(Inst::Cqo { w: Width::W64 }),
            app(Inst::Idiv {
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::Rcx)),
            }),
            app(Inst::Push {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            app(Inst::Cmp {
                w: Width::W64,
                src: Operand::Imm(0),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            app(Inst::Ret),
        ]);
        let map = CoverageMap::analyze(&p);
        let idiv = map.site(3).expect("idiv site");
        assert_eq!(idiv.bits, 128);
        assert_eq!(idiv.units(), 16);
        // raw_bit 64 selects rdx byte 0 == unit 8.
        assert_eq!(idiv.verdict_for(64), idiv.verdicts[8]);
        let cmp = map.site(5).expect("flags site");
        assert_eq!(cmp.units(), 1);
        assert_eq!(cmp.verdict_for(200), StaticVerdict::Unknown);
    }

    #[test]
    fn rollups_sum_to_total_units() {
        let p = program(vec![
            app(Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            prot(mov64(Gpr::Rax, Gpr::R10)),
            prot(Inst::Cmp {
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::R10)),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            prot(Inst::Jcc {
                cc: Cc::Ne,
                target: EXIT_FUNCTION.into(),
            }),
            app(Inst::Push {
                src: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            app(Inst::Ret),
        ]);
        let map = CoverageMap::analyze(&p);
        let total: usize = map
            .functions
            .iter()
            .flat_map(|f| &f.sites)
            .map(SiteCoverage::units)
            .sum();
        assert_eq!(map.rollup().total(), total);
        let mech_total: usize = map
            .mechanism_rollup()
            .iter()
            .map(|(_, c)| c.total())
            .sum();
        assert_eq!(mech_total, total);
    }

    #[test]
    fn manifest_demotes_unvouched_checker() {
        // Same detected idiom, but the manifest says the pass reserved
        // r12 only — the r10 checker is not vouched for.
        let insts = vec![
            app(Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(7),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            prot(mov64(Gpr::Rax, Gpr::R10)),
            prot(Inst::Cmp {
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::R10)),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            }),
            prot(Inst::Jcc {
                cc: Cc::Ne,
                target: EXIT_FUNCTION.into(),
            }),
            app(Inst::Ret),
        ];
        let p = program(insts);
        let mut manifests = BTreeMap::new();
        manifests.insert(
            "main".to_owned(),
            ProtectionManifest {
                reserved_gprs: vec![Gpr::R12],
                accumulators: vec![],
            },
        );
        let demoted = CoverageMap::analyze_with(&p, Some(&manifests));
        assert_eq!(
            demoted.site(1).unwrap().verdicts,
            vec![StaticVerdict::Unknown; 8]
        );
        // With a truthful manifest the claim stands.
        manifests.insert(
            "main".to_owned(),
            ProtectionManifest {
                reserved_gprs: vec![Gpr::R10],
                accumulators: vec![],
            },
        );
        let kept = CoverageMap::analyze_with(&p, Some(&manifests));
        assert_eq!(
            kept.site(1).unwrap().verdicts,
            vec![StaticVerdict::Detected; 8]
        );
    }

    #[test]
    fn red_zone_pop_check_is_detected() {
        // Requisition idiom: pop, then compare against the still-warm
        // stack slot in the red zone.
        let p = program(vec![
            app(Inst::Push {
                src: Operand::Imm(5),
            }),
            app(Inst::Pop {
                dst: Operand::Reg(Reg::q(Gpr::Rcx)),
            }),
            prot(Inst::Cmp {
                w: Width::W64,
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
                dst: Operand::Reg(Reg::q(Gpr::Rcx)),
            }),
            prot(Inst::Jcc {
                cc: Cc::Ne,
                target: EXIT_FUNCTION.into(),
            }),
            app(Inst::Push {
                src: Operand::Reg(Reg::q(Gpr::Rcx)),
            }),
            app(Inst::Ret),
        ]);
        let map = CoverageMap::analyze(&p);
        let pop = map.site(1).expect("pop site");
        assert_eq!(pop.verdicts, vec![StaticVerdict::Detected; 8]);
    }
}
