//! Per-function fault-propagation interface summaries (FastFlip-style).
//!
//! The coverage analysis (PR 4) classifies every injectable site of a
//! function in isolation: its scan stops at the first block boundary
//! and returns `Unknown` whenever live taint survives past it.  This
//! module goes one step further and computes, for every site byte, the
//! **architectural footprint through which the fault can escape the
//! function boundary**: which live-out GPR bytes, SIMD registers,
//! RFLAGS, and memory regions can still differ from the golden run
//! when control leaves the function.  A caller-side composition rule
//! (`ferrum_faultsim::compose`) then maps these footprints through the
//! liveness at each call site to lift per-function verdicts to
//! whole-program ones — FastFlip's "compose per-section injection
//! results" idea applied to FERRUM's byte-exact site model.  Only a
//! unit the coverage analysis left `Unknown` needs an escape scan, and
//! only if that analysis did not already widen it: every other unit's
//! footprint follows from its verdict, so a [`SummaryMap`] stores the
//! scans alone.
//!
//! # Soundness doctrine
//!
//! The escape scan inherits the coverage analysis's exact-taint rules
//! wholesale ([`coverage`](super::coverage) module docs): it tracks
//! the exact set of bytes differing from golden, propagates only
//! through exactness-preserving operations, and *widens to the full
//! footprint* the moment exactness would be lost (tainted stores,
//! arithmetic, calls with live taint, budget overflow).  The footprint
//! is therefore a superset of anything a dynamic fault at that site
//! can corrupt at function exit, and the summary never contradicts the
//! coverage verdict — it only refines `Unknown` with escape
//! information.  Where coverage bails at the first block boundary, the
//! escape scan keeps following the CFG (both arms of application
//! branches, jump targets, fall-throughs) until every path has
//! converged, escaped, or widened.

use std::fmt::Write as _;

use crate::analysis::cfg::block_labels;
use crate::analysis::coverage::{
    group_seed, group_size, protection_step, Callee, Control, CoverageMap, FunctionFacts,
    SiteCoverage, StaticVerdict, Taint, Target, ALL_LANES,
};
use crate::analysis::liveness::{reg_bytes, ByteSet};
use crate::printer::write_inst;
use crate::program::{AsmFunction, AsmProgram};
use crate::reg::Gpr;

/// The architectural state through which a fault can leave a function.
///
/// The footprint is an over-approximation: a set bit means the fault
/// *may* escape through that byte/register, a clear bit means it
/// provably cannot.  [`EscapeFootprint::full`] is the absorbing "lost
/// exactness" element.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EscapeFootprint {
    /// GPR bytes that may differ at function exit (same packing as
    /// [`ByteSet`]).
    pub gpr: ByteSet,
    /// SIMD registers (bit per register index) that may differ at
    /// function exit.
    pub simd: u16,
    /// RFLAGS may differ at exit.
    pub flags: bool,
    /// Memory written by the function may differ (includes the output
    /// stream: a corrupted `print_i64` argument widens to full).
    pub mem: bool,
    /// Taint crossed into a callee the scan could not follow.
    pub callee: bool,
}

impl EscapeFootprint {
    /// The empty footprint: the fault provably converges inside the
    /// function on every path that does not detect.
    pub fn empty() -> EscapeFootprint {
        EscapeFootprint::default()
    }

    /// The full footprint: exactness was lost, anything may escape.
    pub fn full() -> EscapeFootprint {
        EscapeFootprint {
            gpr: ByteSet::MAX,
            simd: 0xffff,
            flags: true,
            mem: true,
            callee: false,
        }
    }

    /// True when nothing escapes.
    pub fn is_empty(&self) -> bool {
        self.gpr == 0 && self.simd == 0 && !self.flags && !self.mem && !self.callee
    }

    /// True when the footprint is the absorbing widened element.
    pub fn is_full(&self) -> bool {
        self.gpr == ByteSet::MAX && self.simd == 0xffff && self.flags && self.mem
    }

    /// True when the fault escapes only through general-purpose
    /// register bytes — the one shape the composition rule can map
    /// through caller-side liveness.
    pub fn register_only(&self) -> bool {
        self.gpr != 0 && self.simd == 0 && !self.flags && !self.mem && !self.callee
    }
}

/// Summary of one verdict unit (one destination byte) of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitSummary {
    /// What the fault can corrupt at function exit.
    pub escape: EscapeFootprint,
    /// Some explored path ends in a protection checker that fires.
    /// Load-bearing for composition: `Unknown` may be lifted to
    /// `Masked` only when the footprint is clean *and* no path
    /// detects (a detecting path yields `Detected`, not `Benign`).
    pub may_detect: bool,
}

impl UnitSummary {
    /// The summary a unit's coverage verdict implies: a `Masked` unit
    /// escapes nothing, a `Detected` one escapes nothing and detects,
    /// and a `Vulnerable` one, or an `Unknown` one the coverage map
    /// widened ([`SiteCoverage`]'s RFLAGS units and straight-line
    /// bails), may corrupt anything.
    fn of_verdict(v: StaticVerdict) -> UnitSummary {
        let (escape, may_detect) = match v {
            StaticVerdict::Masked => (EscapeFootprint::empty(), false),
            StaticVerdict::Detected => (EscapeFootprint::empty(), true),
            StaticVerdict::Vulnerable | StaticVerdict::Unknown => (EscapeFootprint::full(), false),
        };
        UnitSummary { escape, may_detect }
    }
}

/// Escape-class rollup over units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EscapeRollup {
    /// Units whose footprint is empty (converge or detect in-function).
    pub clean: usize,
    /// Units escaping only through GPR bytes (composable).
    pub register: usize,
    /// Units with any wider escape (SIMD, flags, memory, callee).
    pub wide: usize,
    /// Units with at least one detecting path.
    pub may_detect: usize,
}

/// The whole-program summary map: the escape scans of the coverage
/// map's `Unknown` units that it did not widen.  Every other unit's
/// summary follows from its verdict, so the map stores none, and it
/// keeps no site table of its own: callers look units up through the
/// [`CoverageMap`] it was built on.
#[derive(Debug, Clone)]
pub struct SummaryMap {
    /// `((pc, unit), summary)` of every scanned unit, sorted by pc,
    /// then unit.
    scanned: Vec<((usize, usize), UnitSummary)>,
    /// Injectable sites of the coverage map.
    sites: usize,
}

impl SummaryMap {
    /// Builds the summary on top of an existing coverage map (which
    /// must have been computed for the same program).
    pub fn build(p: &AsmProgram, coverage: &CoverageMap) -> SummaryMap {
        let mut map = SummaryMap {
            scanned: Vec::new(),
            sites: coverage.total_sites(),
        };
        let mut pc = 0usize;
        for (f, fc) in p.functions.iter().zip(&coverage.functions) {
            debug_assert_eq!(f.name, fc.name);
            summarize_function(f, &fc.sites, pc, &mut map.scanned);
            pc += f.blocks.iter().map(|b| b.insts.len()).sum::<usize>();
        }
        map
    }

    /// The summary of unit `unit` of the site at flat pc `pc`, whose
    /// coverage verdict is `verdict`.
    pub fn unit(&self, pc: usize, unit: usize, verdict: StaticVerdict) -> UnitSummary {
        if verdict == StaticVerdict::Unknown {
            if let Ok(i) = self
                .scanned
                .binary_search_by_key(&(pc, unit), |&(at, _)| at)
            {
                return self.scanned[i].1;
            }
        }
        UnitSummary::of_verdict(verdict)
    }

    /// The summary of the unit governing a fault at `(pc, raw_bit)`,
    /// found through `coverage`'s site at `pc`.
    pub fn unit_at(&self, coverage: &CoverageMap, pc: usize, raw_bit: u16) -> Option<UnitSummary> {
        let site = coverage.site(pc)?;
        let k = site.unit_for(raw_bit);
        Some(self.unit(pc, k, site.verdict(k)))
    }

    /// Escape-class rollup over every unit of `coverage`.
    pub fn escape_rollup(&self, coverage: &CoverageMap) -> EscapeRollup {
        let mut r = EscapeRollup::default();
        for s in coverage.functions.iter().flat_map(|f| &f.sites) {
            for (k, v) in s.verdicts().enumerate() {
                let u = self.unit(s.pc, k, v);
                if u.escape.is_empty() {
                    r.clean += 1;
                } else if u.escape.register_only() {
                    r.register += 1;
                } else {
                    r.wide += 1;
                }
                r.may_detect += usize::from(u.may_detect);
            }
        }
        r
    }

    /// Total number of summarized sites.
    pub fn total_sites(&self) -> usize {
        self.sites
    }
}

/// FNV-1a over the bytes written to it.
struct Fnv1a(u64);

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Fnv1a::PRIME);
        }
    }

    /// Closes a field with the `0xff` separator.
    fn end_field(&mut self) {
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(Fnv1a::PRIME);
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Content hash of a function body (FNV-1a over the printed
/// instructions, block labels and provenance tags).  This is the
/// incremental-campaign cache key: any textual change to the function
/// — including a provenance-only change, which can alter analysis
/// results — produces a different hash.  The text is streamed into
/// the hash, never built as a string.
pub fn function_hash(f: &AsmFunction) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    h.bytes(f.name.as_bytes());
    h.end_field();
    for b in &f.blocks {
        h.bytes(b.label.as_bytes());
        h.end_field();
        for ai in &b.insts {
            // Writing to the hash cannot fail.
            let _ = write_inst(&mut h, &ai.inst);
            h.end_field();
            let _ = write!(h, "{:?}", ai.prov);
            h.end_field();
        }
    }
    h.0
}

/// Runs the escape scan of every `Unknown` unit of `f` that its
/// coverage `sites` did not widen, appending the summaries to `out` in
/// pc order; `f` starts at flat pc `first_pc`.
fn summarize_function(
    f: &AsmFunction,
    sites: &[SiteCoverage],
    first_pc: usize,
    out: &mut Vec<((usize, usize), UnitSummary)>,
) {
    // Built at the function's first unit that needs an escape scan.
    let mut scan: Option<EscapeScan> = None;
    // The block holding the site, and the flat pc of its first
    // instruction.
    let (mut bi, mut block_pc) = (0, first_pc);
    for site in sites {
        let mut units = site.units_with(StaticVerdict::Unknown) & !site.widened;
        if units == 0 {
            continue;
        }
        while site.pc >= block_pc + f.blocks[bi].insts.len() {
            block_pc += f.blocks[bi].insts.len();
            bi += 1;
        }
        let i = site.pc - block_pc;
        let dest = f.blocks[bi].insts[i].inst.dest_class();
        let Some(n) = group_size(dest) else { continue };
        let scan = scan.get_or_insert_with(|| EscapeScan::new(f));
        while units != 0 {
            let k = units.trailing_zeros() as usize;
            units &= units - 1;
            // The unit's lane of its group's seed.
            let mut seed = group_seed(dest, k / n);
            seed.retain(1 << (k % n));
            let (escape, may_detect) = scan.run(bi, i + 1, seed);
            out.push(((site.pc, k), UnitSummary { escape, may_detect }));
        }
    }
}

/// True when `a` taints every byte `b` taints.  Exploring a subset
/// taint after its superset adds nothing: escape events are monotone
/// in the taint set (more tainted bytes → more escape, and a checker
/// that fires on the subset either fires on the superset too or the
/// superset bails to the full footprint).
fn subsumes(a: &Taint, b: &Taint) -> bool {
    a.gpr | b.gpr == a.gpr && b.simd_masks().all(|(r, bm)| a.simd(r) | bm == a.simd(r))
}

/// Every tainted register escapes into the caller.
fn escape_regs(fp: &mut EscapeFootprint, taint: &Taint) {
    fp.gpr |= taint.gpr;
    fp.simd |= taint.occupied();
}

/// The escape scan of one function: its fact table and the work
/// buffers every scan of the function reuses.  It needs no live-after
/// sets: deadness is already folded into the coverage verdicts, and
/// the scan tracks exact overwrites instead.
struct EscapeScan<'f> {
    f: &'f AsmFunction,
    facts: FunctionFacts,
    /// Taints already explored from each block's entry.
    visited: Vec<Vec<Taint>>,
    /// The blocks whose `visited` list is non-empty, so that a reset
    /// touches only those.
    touched: Vec<usize>,
    /// Pending walks: `(block, instruction, taint)`.
    work: Vec<(usize, usize, Taint)>,
    /// Block entries one scan may explore before it widens.
    budget: usize,
}

impl<'f> EscapeScan<'f> {
    fn new(f: &'f AsmFunction) -> EscapeScan<'f> {
        EscapeScan {
            f,
            facts: FunctionFacts::build(f, &block_labels(f)),
            visited: vec![Vec::new(); f.blocks.len()],
            touched: Vec::new(),
            work: Vec::new(),
            budget: 8 * f.blocks.len() + 64,
        }
    }

    /// CFG-following escape scan: explores every golden-consistent
    /// path from `seed` at instruction `i0` of block `bi0`,
    /// accumulating the union of escape events.  Returns the footprint
    /// and whether any path ends in a firing checker.
    ///
    /// Path-end events:
    /// * taint clears → the runs converged, nothing escapes on this
    ///   path;
    /// * `ret` (or falling off the function) → every tainted register
    ///   byte escapes into the caller;
    /// * checker fires / control reaches `exit_function` → detection;
    /// * exactness lost (tainted store/arithmetic, live taint across a
    ///   call, unknown branch target, exploration budget exhausted) →
    ///   widen to [`EscapeFootprint::full`] and stop.
    fn run(&mut self, bi0: usize, i0: usize, seed: Taint) -> (EscapeFootprint, bool) {
        for bi in self.touched.drain(..) {
            self.visited[bi].clear();
        }
        self.work.clear();
        self.work.push((bi0, i0, seed));
        let f = self.f;
        let mut budget = self.budget;
        let mut fp = EscapeFootprint::empty();
        let mut may_detect = false;
        'work: while let Some((bi, start, mut taint)) = self.work.pop() {
            if start == 0 {
                // Block-entry memoisation with subsumption: only a
                // taint adding new bytes over everything already
                // explored at this entry is worth walking again.
                let seen = &mut self.visited[bi];
                if seen.iter().any(|v| subsumes(v, &taint)) {
                    continue;
                }
                if budget == 0 {
                    return (EscapeFootprint::full(), may_detect);
                }
                budget -= 1;
                if seen.is_empty() {
                    self.touched.push(bi);
                }
                seen.push(taint.clone());
            }
            let block = &f.blocks[bi].insts;
            let facts = self.facts.block(bi);
            let mut i = start;
            loop {
                if taint.is_clear() {
                    // Converged: bit-identical to golden from here on.
                    continue 'work;
                }
                let Some(fact) = facts.get(i) else {
                    if bi + 1 < f.blocks.len() {
                        self.work.push((bi + 1, 0, taint));
                    } else {
                        escape_regs(&mut fp, &taint);
                    }
                    continue 'work;
                };
                match fact.control {
                    Control::Plain => {}
                    Control::Ret => {
                        escape_regs(&mut fp, &taint);
                        continue 'work;
                    }
                    Control::Call(Callee::Exit) => {
                        may_detect = true;
                        continue 'work;
                    }
                    Control::Call(Callee::Print) => {
                        if taint.gpr & reg_bytes(Gpr::Rdi) != 0 {
                            // The corrupted value reaches the output
                            // stream: an SDC in the making.
                            return (EscapeFootprint::full(), may_detect);
                        }
                        // The intrinsic reads `%rdi` and appends to the
                        // output; it writes no register, so taint is
                        // exactly preserved.
                        i += 1;
                        continue;
                    }
                    Control::Call(Callee::Other) => {
                        // Live taint crossing into a callee: the callee
                        // may consume it as an argument, spill it, or
                        // merge it into its accumulators — only a
                        // fully-converged state may cross (same rule as
                        // the coverage scan).
                        let mut full = EscapeFootprint::full();
                        full.callee = true;
                        return (full, may_detect);
                    }
                    Control::Jump(target) => {
                        match target {
                            Target::Exit => may_detect = true,
                            Target::Block(t) => self.work.push((t as usize, 0, taint)),
                            Target::Unresolved => return (EscapeFootprint::full(), may_detect),
                        }
                        continue 'work;
                    }
                    // Flags are untainted on every surviving path (a
                    // tainted flag-writer detects or bails), so the
                    // branch goes exactly where golden went.  Golden
                    // completed, so golden never exited: a branch to
                    // `exit_function` falls through.
                    Control::ExitCheck | Control::Branch(Target::Exit) => {
                        i += 1;
                        continue;
                    }
                    Control::Branch(Target::Block(t)) => {
                        // Golden's direction is unknown statically:
                        // explore both arms.
                        self.work.push((t as usize, 0, taint.clone()));
                        i += 1;
                        continue;
                    }
                    Control::Branch(Target::Unresolved) => {
                        return (EscapeFootprint::full(), may_detect);
                    }
                }
                let reading = fact.read_lanes(&taint);
                if reading != 0 {
                    if !fact.protection {
                        // Application computation consumed the
                        // corrupted value: from here anything may be
                        // corrupted.
                        return (EscapeFootprint::full(), may_detect);
                    }
                    let step = protection_step(block, facts, i, &mut taint, reading);
                    if step.bailed != 0 {
                        return (EscapeFootprint::full(), may_detect);
                    }
                    if step.detected != 0 {
                        may_detect = true;
                        continue 'work;
                    }
                } else {
                    fact.kill(&mut taint, ALL_LANES);
                }
                i += 1;
            }
        }
        (fp, may_detect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::lint::ProtectionManifest;
    use crate::analysis::liveness::byte_bit;
    use crate::flags::Cc;
    use crate::inst::{AluOp, Inst};
    use crate::operand::Operand;
    use crate::program::{AsmBlock, AsmInst, AsmProgram};
    use crate::provenance::{Mechanism, Provenance, TechniqueTag};
    use crate::reg::{Reg, Width};
    use crate::{EXIT_FUNCTION, PRINT_I64};

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

    /// The coverage verdict and the summary of unit 0 of the site at
    /// `pc`.
    fn unit0(p: &AsmProgram, pc: usize) -> (StaticVerdict, UnitSummary) {
        let cov = CoverageMap::analyze(p);
        let v = cov.site(pc).expect("site").verdict(0);
        (v, SummaryMap::build(p, &cov).unit(pc, 0, v))
    }

    /// Decided units at pc 0 and 5, a scanned `Unknown` one at pc 1,
    /// and a widened one at pc 2: the protection `push` bails it.
    const MIXED: &str = "\
.globl main
main:
  movq %rdi, %r10
  movq %rdi, %rax
  movq %rdi, %rcx
  pushq %rcx # prot:ferrum
  jmp tail
tail:
  addq $0, %rcx
  ret
";

    /// A checker the manifest of [`pinned_manifest`] does not vouch
    /// for: the duplicate at pc 1 is `Unknown`, not `Detected`.
    const UNVOUCHED: &str = "\
.globl main
main:
  movq $7, %rax
  movq %rax, %r10 # prot:ferrum:check
  cmpq %r10, %rax # prot:ferrum:check
  jne exit_function # prot:ferrum:check
  ret
";

    /// The protection `call exit_function` reads the corrupted `%rdi`.
    const CALLS_EXIT: &str = "\
.globl main
main:
  movq $1, %rdi
  call exit_function # prot:ferrum:check
  ret
";

    /// A protection `call f` reads the corrupted `%rdi`.
    const CALLS_F: &str = "\
.globl main
main:
  movq $1, %rdi
  call f # prot:ferrum:check
  ret
";

    /// Manifests for `main` that reserve `%r12` alone.
    fn pinned_manifest() -> std::collections::BTreeMap<String, ProtectionManifest> {
        let manifest = ProtectionManifest {
            reserved_gprs: vec![Gpr::R12],
            accumulators: vec![],
        };
        [("main".to_owned(), manifest)].into()
    }

    #[test]
    fn summary_stores_only_the_scanned_units() {
        let p = crate::parser::parse_program(MIXED).expect("parse");
        let cov = CoverageMap::analyze(&p);
        let map = SummaryMap::build(&p, &cov);
        assert_eq!(map.total_sites(), cov.total_sites());
        let (mut scanned, mut widened) = (Vec::new(), Vec::new());
        for s in cov.functions.iter().flat_map(|f| &f.sites) {
            for k in 0..s.units() {
                if s.verdict(k) == StaticVerdict::Unknown {
                    let list = if s.widened >> k & 1 == 0 {
                        &mut scanned
                    } else {
                        &mut widened
                    };
                    list.push((s.pc, k));
                }
            }
        }
        let stored: Vec<(usize, usize)> = map.scanned.iter().map(|&(at, _)| at).collect();
        assert_eq!(stored, scanned);
        assert_eq!(stored, (0..8).map(|k| (1, k)).collect::<Vec<_>>());
        assert_eq!(widened, (0..8).map(|k| (2, k)).collect::<Vec<_>>());
        for (pc, k) in widened {
            let u = map.unit(pc, k, StaticVerdict::Unknown);
            assert_eq!((u.escape, u.may_detect), (EscapeFootprint::full(), false));
        }
    }

    /// The escape scan of every `Unknown` unit of `cov` that has a
    /// seed, widened or not, in pc order: the summaries
    /// [`SummaryMap::build`] computed before the coverage map recorded
    /// its widened units.
    fn every_unknown_unit_scanned(
        p: &AsmProgram,
        cov: &CoverageMap,
    ) -> Vec<((usize, usize), UnitSummary)> {
        let mut out = Vec::new();
        let mut pc = 0;
        for f in &p.functions {
            let mut scan = EscapeScan::new(f);
            for (bi, b) in f.blocks.iter().enumerate() {
                for (i, ai) in b.insts.iter().enumerate() {
                    let this_pc = pc;
                    pc += 1;
                    let dest = ai.inst.dest_class();
                    let (Some(site), Some(n)) = (cov.site(this_pc), group_size(dest)) else {
                        continue;
                    };
                    for (k, v) in site.verdicts().enumerate() {
                        if v != StaticVerdict::Unknown {
                            continue;
                        }
                        let mut seed = group_seed(dest, k / n);
                        seed.retain(1 << (k % n));
                        let (escape, may_detect) = scan.run(bi, i + 1, seed);
                        out.push(((this_pc, k), UnitSummary { escape, may_detect }));
                    }
                }
            }
        }
        out
    }

    /// Checks every unit of `cov` that has a seed against its escape
    /// scan, and returns how many units the summary skipped and how
    /// many it scanned.
    fn check_the_skip(p: &AsmProgram, cov: &CoverageMap, what: &str) -> (usize, usize) {
        let map = SummaryMap::build(p, cov);
        let every = every_unknown_unit_scanned(p, cov);
        for &((pc, k), scanned) in &every {
            assert_eq!(
                map.unit(pc, k, StaticVerdict::Unknown),
                scanned,
                "{what}: pc {pc} unit {k}"
            );
        }
        (every.len() - map.scanned.len(), map.scanned.len())
    }

    #[test]
    fn skipping_widened_units_matches_scanning_every_unknown_unit() {
        let (mut skipped, mut scanned) = (0, 0);
        for seed in 0..3000u64 {
            let p = crate::analysis::coverage::tests::random_program(seed);
            let (s, n) = check_the_skip(&p, &CoverageMap::analyze(&p), &format!("seed {seed}"));
            (skipped, scanned) = (skipped + s, scanned + n);
        }
        // About 8,600 units are skipped and 191,000 scanned; both kinds
        // must keep occurring to show anything.
        assert!(
            skipped > 4000 && scanned > 100_000,
            "{skipped} skipped, {scanned} scanned"
        );
        for listing in [MIXED, UNVOUCHED, CALLS_EXIT, CALLS_F] {
            let p = crate::parser::parse_program(listing).expect("parse");
            check_the_skip(&p, &CoverageMap::analyze(&p), listing);
            let cov = CoverageMap::analyze_with(&p, Some(&pinned_manifest()));
            check_the_skip(&p, &cov, listing);
        }
    }

    #[test]
    fn detections_demoted_and_bails_at_calls_are_still_scanned() {
        let summary = |listing: &str, cov: fn(&AsmProgram) -> CoverageMap, pc: usize| {
            let p = crate::parser::parse_program(listing).expect("parse");
            let cov = cov(&p);
            assert_eq!(
                cov.site(pc).expect("site").verdict(0),
                StaticVerdict::Unknown
            );
            let u = SummaryMap::build(&p, &cov).unit(pc, 0, StaticVerdict::Unknown);
            (u.escape, u.may_detect)
        };
        // The checker fires, but the manifest does not vouch for it.
        let demoted = |p: &AsmProgram| CoverageMap::analyze_with(p, Some(&pinned_manifest()));
        assert_eq!(
            summary(UNVOUCHED, demoted, 1),
            (EscapeFootprint::empty(), true)
        );
        // The escape scan matches a call before it reads taint.
        assert_eq!(
            summary(CALLS_EXIT, CoverageMap::analyze, 0),
            (EscapeFootprint::empty(), true)
        );
        let mut into_f = EscapeFootprint::full();
        into_f.callee = true;
        assert_eq!(summary(CALLS_F, CoverageMap::analyze, 0), (into_f, false));
    }

    #[test]
    fn unknown_at_block_end_refined_to_register_escape() {
        // rax flows across a block boundary into `ret`: coverage says
        // Unknown (its scan stops at the boundary), the escape scan
        // follows the fall-through and records a register-only escape.
        let mut b0 = AsmBlock::new("entry");
        b0.insts.push(app(mov64(Gpr::Rcx, Gpr::Rax)));
        let mut b1 = AsmBlock::new("tail");
        b1.insts.push(app(Inst::Ret));
        let mut f = AsmFunction::new("main");
        f.blocks.push(b0);
        f.blocks.push(b1);
        let mut p = AsmProgram::new();
        p.functions.push(f);
        let (v, u) = unit0(&p, 0);
        assert_eq!(v, StaticVerdict::Unknown);
        assert!(u.escape.register_only(), "escape = {:?}", u.escape);
        // Unit 0 is destination byte 0: exactly that byte escapes.
        assert_eq!(u.escape.gpr, byte_bit(Gpr::Rax, 0));
        assert!(!u.may_detect);
    }

    #[test]
    fn unknown_overwritten_in_next_block_has_empty_footprint() {
        // A tainted SIMD register is overwritten with a golden value
        // in the next block.  Coverage says Unknown (there is no SIMD
        // liveness, so its block-end bail cannot claim Masked); the
        // escape scan tracks the exact overwrite across the boundary
        // and proves the empty footprint, so composition may lift the
        // verdict to Masked.
        use crate::reg::Xmm;
        let mut b0 = AsmBlock::new("entry");
        b0.insts.push(app(Inst::MovqToXmm {
            src: Operand::Reg(Reg::q(Gpr::Rcx)),
            dst: Xmm::new(0),
        }));
        let mut b1 = AsmBlock::new("tail");
        b1.insts.push(app(Inst::MovqToXmm {
            src: Operand::Reg(Reg::q(Gpr::Rdx)),
            dst: Xmm::new(0),
        }));
        b1.insts.push(app(Inst::Ret));
        let mut f = AsmFunction::new("main");
        f.blocks.push(b0);
        f.blocks.push(b1);
        let mut p = AsmProgram::new();
        p.functions.push(f);
        let (v, u) = unit0(&p, 0);
        assert_eq!(v, StaticVerdict::Unknown);
        assert!(u.escape.is_empty(), "escape = {:?}", u.escape);
        assert!(!u.may_detect);
    }

    #[test]
    fn checker_in_next_block_sets_may_detect() {
        // Taint survives into the next block where a protection
        // checker consumes it: every path detects, the footprint is
        // empty but may_detect blocks a Masked lift.
        let mut b0 = AsmBlock::new("entry");
        b0.insts.push(app(mov64(Gpr::Rcx, Gpr::Rax)));
        let mut b1 = AsmBlock::new("check");
        b1.insts.push(prot(Inst::Cmp {
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::Rax)),
            dst: Operand::Reg(Reg::q(Gpr::R10)),
        }));
        b1.insts.push(prot(Inst::Jcc {
            cc: Cc::Ne,
            target: EXIT_FUNCTION.into(),
        }));
        b1.insts.push(app(Inst::Ret));
        let mut f = AsmFunction::new("main");
        f.blocks.push(b0);
        f.blocks.push(b1);
        let mut p = AsmProgram::new();
        p.functions.push(f);
        let (v, u) = unit0(&p, 0);
        assert_eq!(v, StaticVerdict::Unknown);
        assert!(u.escape.is_empty(), "escape = {:?}", u.escape);
        assert!(u.may_detect);
    }

    #[test]
    fn vulnerable_and_flags_units_are_fully_widened() {
        let p = program(vec![
            app(mov64(Gpr::Rcx, Gpr::Rax)),
            app(Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                src: Operand::Reg(Reg::q(Gpr::Rax)),
                dst: Operand::Reg(Reg::q(Gpr::Rdi)),
            }),
            app(Inst::Cmp {
                w: Width::W64,
                src: Operand::Imm(0),
                dst: Operand::Reg(Reg::q(Gpr::Rdi)),
            }),
            app(Inst::Ret),
        ]);
        // mov's value feeds the add: Vulnerable, full footprint.
        let (v, u) = unit0(&p, 0);
        assert_eq!(v, StaticVerdict::Vulnerable);
        assert!(u.escape.is_full());
        // cmp writes RFLAGS: single Unknown unit, full footprint.
        let (v, u) = unit0(&p, 2);
        assert_eq!(v, StaticVerdict::Unknown);
        assert!(u.escape.is_full());
    }

    #[test]
    fn taint_crossing_a_call_widens_with_callee_flag() {
        let p = program(vec![
            app(mov64(Gpr::Rcx, Gpr::Rbx)),
            app(Inst::Call {
                target: "helper".into(),
            }),
            app(mov64(Gpr::Rbx, Gpr::Rdi)),
            app(Inst::Ret),
        ]);
        let (v, u) = unit0(&p, 0);
        assert_eq!(v, StaticVerdict::Unknown);
        assert!(u.escape.callee, "escape = {:?}", u.escape);
        assert!(u.escape.is_full());
    }

    #[test]
    fn tainted_print_argument_widens_to_full() {
        // A corrupted %rdi reaching print_i64 is output corruption.
        let mut b0 = AsmBlock::new("entry");
        b0.insts.push(app(mov64(Gpr::Rcx, Gpr::Rdi)));
        let mut b1 = AsmBlock::new("out");
        b1.insts.push(app(Inst::Call {
            target: PRINT_I64.into(),
        }));
        b1.insts.push(app(Inst::Ret));
        let mut f = AsmFunction::new("main");
        f.blocks.push(b0);
        f.blocks.push(b1);
        let mut p = AsmProgram::new();
        p.functions.push(f);
        let (v, u) = unit0(&p, 0);
        assert_eq!(v, StaticVerdict::Unknown);
        assert!(u.escape.is_full());
        assert!(!u.escape.callee);
    }

    #[test]
    fn both_branch_arms_are_explored() {
        // One arm returns with taint in rax, the other clears it: the
        // footprint is the union (register escape), proving the scan
        // explored both.
        let mut b0 = AsmBlock::new("entry");
        b0.insts.push(app(mov64(Gpr::Rcx, Gpr::Rax)));
        b0.insts.push(app(Inst::Jcc {
            cc: Cc::E,
            target: "clear".into(),
        }));
        b0.insts.push(app(Inst::Ret)); // taint escapes here
        let mut b1 = AsmBlock::new("clear");
        b1.insts.push(app(Inst::Mov {
            w: Width::W64,
            src: Operand::Imm(0),
            dst: Operand::Reg(Reg::q(Gpr::Rax)),
        }));
        b1.insts.push(app(Inst::Ret)); // converged here
        let mut f = AsmFunction::new("main");
        f.blocks.push(b0);
        f.blocks.push(b1);
        let mut p = AsmProgram::new();
        p.functions.push(f);
        let (v, u) = unit0(&p, 0);
        assert_eq!(v, StaticVerdict::Unknown);
        assert!(u.escape.register_only());
        assert_eq!(u.escape.gpr, byte_bit(Gpr::Rax, 0));
    }

    #[test]
    fn loops_terminate_via_subsumption() {
        // A loop carrying taint around a back edge must converge via
        // the visited-set subsumption check, not the budget.  The
        // taint sits in %rax (live into `ret`, so coverage cannot
        // claim Masked at the block boundary) while the loop counts
        // in %rcx without touching it.
        let mut b0 = AsmBlock::new("entry");
        b0.insts.push(app(mov64(Gpr::Rcx, Gpr::Rax)));
        let mut b1 = AsmBlock::new("loop");
        b1.insts.push(app(Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            src: Operand::Imm(1),
            dst: Operand::Reg(Reg::q(Gpr::Rcx)),
        }));
        b1.insts.push(app(Inst::Cmp {
            w: Width::W64,
            src: Operand::Imm(10),
            dst: Operand::Reg(Reg::q(Gpr::Rcx)),
        }));
        b1.insts.push(app(Inst::Jcc {
            cc: Cc::Ne,
            target: "loop".into(),
        }));
        b1.insts.push(app(Inst::Ret));
        let mut f = AsmFunction::new("main");
        f.blocks.push(b0);
        f.blocks.push(b1);
        let mut p = AsmProgram::new();
        p.functions.push(f);
        let (v, u) = unit0(&p, 0);
        assert_eq!(v, StaticVerdict::Unknown);
        assert!(u.escape.register_only());
        assert_eq!(u.escape.gpr, byte_bit(Gpr::Rax, 0));
    }

    #[test]
    fn footprint_covers_coverage_scan_semantics() {
        // Masked/Detected units always get the empty footprint;
        // Vulnerable always gets the full one.
        let p = program(vec![
            app(mov64(Gpr::Rcx, Gpr::R10)),
            app(Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(0),
                dst: Operand::Reg(Reg::q(Gpr::R10)),
            }),
            app(mov64(Gpr::R10, Gpr::Rdi)),
            app(Inst::Ret),
        ]);
        let (v, u) = unit0(&p, 0);
        assert_eq!(v, StaticVerdict::Masked);
        assert!(u.escape.is_empty());
        assert!(!u.may_detect);
    }

    #[test]
    fn function_hash_tracks_content() {
        let mut f = AsmFunction::new("f");
        let mut b = AsmBlock::new("entry");
        b.insts.push(app(mov64(Gpr::Rcx, Gpr::Rax)));
        b.insts.push(app(Inst::Ret));
        f.blocks.push(b);
        let h0 = function_hash(&f);
        assert_eq!(h0, function_hash(&f), "hash is deterministic");

        // An instruction edit changes the hash.
        let mut g = f.clone();
        g.blocks[0].insts.insert(0, app(Inst::Nop));
        assert_ne!(h0, function_hash(&g));

        // A provenance-only edit changes the hash too.
        let mut g = f.clone();
        g.blocks[0].insts[0] = prot(mov64(Gpr::Rcx, Gpr::Rax));
        assert_ne!(h0, function_hash(&g));

        // A renamed block changes the hash.
        let mut g = f.clone();
        g.blocks[0].label = "other".into();
        assert_ne!(h0, function_hash(&g));

        // A fixed value: journal fingerprints and compose cache keys
        // are built from this hash, so its bytes must never drift.
        // The function covers every `Provenance` variant and the
        // register, memory and immediate operand forms.
        use crate::operand::{MemRef, Scale};
        use crate::provenance::GlueKind;
        use crate::reg::{Xmm, Ymm};
        let mut pinned = AsmFunction::new("pinned");
        let mut b = AsmBlock::new("pinned_entry");
        let with = |inst, prov| AsmInst::new(inst, prov);
        b.insts.push(with(
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(-42),
                dst: Operand::Reg(Reg::q(Gpr::Rax)),
            },
            Provenance::FromIr(7),
        ));
        b.insts.push(with(
            Inst::Mov {
                w: Width::W32,
                src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -12)),
                dst: Operand::Reg(Reg::l(Gpr::Rcx)),
            },
            Provenance::Glue(GlueKind::SlotTraffic),
        ));
        b.insts.push(with(
            Inst::Lea {
                mem: MemRef::indexed(Gpr::Rax, Gpr::Rcx, Scale::S8, 16),
                dst: Reg::q(Gpr::Rdx),
            },
            Provenance::Glue(GlueKind::AddressCalc),
        ));
        b.insts.push(prot(Inst::Cmp {
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::R10)),
            dst: Operand::Reg(Reg::q(Gpr::Rax)),
        }));
        b.insts.push(with(
            Inst::Jcc {
                cc: Cc::Ne,
                target: EXIT_FUNCTION.into(),
            },
            Provenance::Protection(TechniqueTag::HybridAsmEddi, Mechanism::FlagRecheck),
        ));
        b.insts.push(with(
            Inst::Pinsrq {
                lane: 1,
                src: Operand::Mem(MemRef::global("arr", 8)),
                dst: Xmm::new(3),
            },
            Provenance::Protection(TechniqueTag::IrEddi, Mechanism::BatchCapture),
        ));
        b.insts.push(with(
            Inst::Vinserti128 {
                lane: 1,
                src: Xmm::new(3),
                src2: Ymm::new(0),
                dst: Ymm::new(0),
            },
            Provenance::Protection(TechniqueTag::Ferrum, Mechanism::BatchFlush),
        ));
        b.insts.push(app(Inst::Ret));
        pinned.blocks.push(b);
        assert_eq!(function_hash(&pinned), 0x9ff3_1603_ded1_30e5);
    }

    #[test]
    fn catalog_summaries_refine_unknowns() {
        // On protected-style code the escape scan must decide (empty
        // or register-only footprint) at least one unit that coverage
        // left Unknown — the whole point of the layer.  (The asm crate
        // cannot depend on the pipeline, so the function is written by
        // hand.)
        let p = crate::parser::parse_program(MIXED).expect("parse");
        let map = SummaryMap::build(&p, &CoverageMap::analyze(&p));
        let refined = map
            .scanned
            .iter()
            .filter(|(_, u)| u.escape.is_empty() || u.escape.register_only())
            .count();
        assert!(refined > 0, "escape scan refined no Unknown units");
    }

    #[test]
    fn escape_is_monotone_in_verdict_strength() {
        // Structural invariant on a mixed program: decided units have
        // empty footprints, Vulnerable units full ones.
        let p = program(vec![
            app(mov64(Gpr::Rcx, Gpr::Rax)),
            app(mov64(Gpr::Rax, Gpr::Rdi)),
            app(Inst::Ret),
        ]);
        let cov = CoverageMap::analyze(&p);
        let map = SummaryMap::build(&p, &cov);
        for s in cov.functions.iter().flat_map(|f| &f.sites) {
            for (k, v) in s.verdicts().enumerate() {
                let u = map.unit(s.pc, k, v);
                match v {
                    StaticVerdict::Masked | StaticVerdict::Detected => {
                        assert!(u.escape.is_empty())
                    }
                    StaticVerdict::Vulnerable => assert!(u.escape.is_full()),
                    StaticVerdict::Unknown => {}
                }
            }
        }
    }

    #[test]
    fn rollup_counts_units() {
        let p = crate::parser::parse_program(MIXED).expect("parse");
        let cov = CoverageMap::analyze(&p);
        let r = SummaryMap::build(&p, &cov).escape_rollup(&cov);
        assert_eq!(r.clean + r.register + r.wide, cov.rollup().total());
        assert!(r.register > 0, "{r:?}");
    }
}
