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

use std::collections::{BTreeMap, HashMap};

use crate::analysis::cfg::{block_labels, Cfg};
use crate::analysis::lint::ProtectionManifest;
use crate::analysis::liveness::{
    abi_reads_kills, live_after, read_bytes, reg_bytes, use_def, ByteSet, Liveness,
};
use crate::flags::Cc;
use crate::inst::{AluOp, DestClass, Inst, SimdBytes};
use crate::operand::Operand;
use crate::program::{AsmFunction, AsmInst, AsmProgram};
use crate::provenance::{Mechanism, Provenance};
use crate::reg::{Gpr, Width};
use crate::{EXIT_FUNCTION, PRINT_I64};

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
    /// (RFLAGS sites carry a single unit), two bits each: unit `k`'s
    /// verdict is `StaticVerdict::ALL[b0 | b1 << 1]`, where `b0` is bit
    /// `k` and `b1` bit `64 + k`.  A ZMM destination's 64 units are the
    /// most a site has.
    verdicts: u128,
    /// The `Unknown` units whose escape footprint is full without an
    /// escape scan, one bit per unit: an RFLAGS unit, which has no
    /// taint seed, and every unit the lane scan closed at a bail of a
    /// protection instruction that falls through.  Such a scan walks
    /// the same straight-line prefix through the same
    /// [`protection_step`] to the same bail, before any detection.
    pub(crate) widened: u64,
}

impl SiteCoverage {
    /// A site whose units are all `Unknown`.
    fn unknown(pc: usize, bits: u32, prov: Provenance) -> SiteCoverage {
        let mut site = SiteCoverage {
            pc,
            bits,
            prov,
            verdicts: 0,
            widened: 0,
        };
        let all = u128::from(site.unit_mask());
        site.verdicts = all << 64 | all;
        site
    }

    /// The verdict of unit `k`.
    ///
    /// # Panics
    ///
    /// When the site has no unit `k`.
    pub fn verdict(&self, k: usize) -> StaticVerdict {
        assert!(k < self.units(), "unit {k} of a {}-unit site", self.units());
        let b0 = self.verdicts >> k & 1;
        let b1 = self.verdicts >> (64 + k) & 1;
        StaticVerdict::ALL[(b0 | b1 << 1) as usize]
    }

    /// Every unit's verdict, in unit order.
    pub fn verdicts(&self) -> impl ExactSizeIterator<Item = StaticVerdict> + '_ {
        (0..self.units()).map(|k| self.verdict(k))
    }

    /// Sets the verdict of unit `k`.
    ///
    /// # Panics
    ///
    /// When the site has no unit `k`.
    pub fn set_verdict(&mut self, k: usize, v: StaticVerdict) {
        assert!(k < self.units(), "unit {k} of a {}-unit site", self.units());
        let v = v as u128;
        let (b0, b1) = (1u128 << k, 1u128 << (64 + k));
        self.verdicts = self.verdicts & !(b0 | b1) | (v & 1) << k | (v >> 1) << (64 + k);
    }

    /// The units whose verdict is `v`, one bit per unit.
    pub fn units_with(&self, v: StaticVerdict) -> u64 {
        let plane = |bit: u8, shift: u32| {
            let p = (self.verdicts >> shift) as u64;
            if v as u8 & bit != 0 {
                p
            } else {
                !p
            }
        };
        plane(1, 0) & plane(2, 64) & self.unit_mask()
    }

    /// The unit count of each verdict at this site.
    pub fn counts(&self) -> VerdictCounts {
        let n = |v| self.units_with(v).count_ones() as usize;
        VerdictCounts {
            masked: n(StaticVerdict::Masked),
            detected: n(StaticVerdict::Detected),
            vulnerable: n(StaticVerdict::Vulnerable),
            unknown: n(StaticVerdict::Unknown),
        }
    }

    /// Gives unit `first + j` the verdict, and the widening, of lane `j`
    /// of `scan`, for each lane `j` of `lanes`.
    fn set_lanes(&mut self, first: usize, lanes: Lanes, scan: &LaneVerdicts) {
        let plane = |bits: Lanes| u128::from(bits & lanes) << first;
        let both = plane(ALL_LANES);
        self.verdicts =
            self.verdicts & !(both | both << 64) | plane(scan.b0) | plane(scan.b1) << 64;
        self.widened |= u64::from(scan.widened & lanes) << first;
    }

    /// The verdict governing an injector bit choice: its unit's.
    pub fn verdict_for(&self, raw_bit: u16) -> StaticVerdict {
        self.verdict(self.unit_for(raw_bit))
    }

    /// The verdict unit an injector bit choice lands in, mirroring
    /// `apply_fault`: the flipped bit is `raw_bit % bits` and the
    /// verdict unit is its byte.  For `rdx:rax` pair destinations the
    /// selector runs across both halves, so `sel / 8` indexes the
    /// concatenated rax-then-rdx byte units directly.
    pub(crate) fn unit_for(&self, raw_bit: u16) -> usize {
        if self.units() == 1 {
            return 0;
        }
        (u32::from(raw_bit) % self.bits / 8) as usize
    }

    /// Number of verdict units at this site: one per destination byte,
    /// one for RFLAGS' four bits.
    pub fn units(&self) -> usize {
        self.bits.div_ceil(8) as usize
    }

    /// One bit per unit.
    fn unit_mask(&self) -> u64 {
        u64::MAX >> (64 - self.units())
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
    /// Flat pc → (function index, site index), sorted by pc.
    index: Vec<(usize, (u32, u32))>,
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
        // One fact table and one live-after buffer serve every function.
        let (mut facts, mut after) = (FunctionFacts::default(), Vec::new());
        for f in &p.functions {
            let manifest = manifests.and_then(|m| m.get(&f.name));
            let fc = analyze_function(f, &mut pc, manifest, &mut facts, &mut after);
            let fi = map.functions.len() as u32;
            // Sites come in pc order, so the index stays sorted.
            let sites = fc.sites.iter().enumerate();
            map.index
                .extend(sites.map(|(si, s)| (s.pc, (fi, si as u32))));
            map.functions.push(fc);
        }
        map
    }

    /// The site at flat pc `pc`, if that instruction is injectable.
    pub fn site(&self, pc: usize) -> Option<&SiteCoverage> {
        let at = self.index.binary_search_by_key(&pc, |&(p, _)| p).ok()?;
        let (fi, si) = self.index[at].1;
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
                b.merge(&s.counts());
            }
        }
        buckets.into_iter().collect()
    }

    /// Total number of injectable sites (instructions).
    pub fn total_sites(&self) -> usize {
        self.functions.iter().map(|f| f.sites.len()).sum()
    }
}

/// A set of byte lanes: bit `j` stands for every register byte at an
/// offset `≡ j (mod 8)` within its register.  Every transfer the scan
/// models keeps a byte at its offset mod 8, and every read, kill and
/// liveness test is per byte, so up to eight single-byte taints that
/// start in distinct lanes evolve independently inside one [`Taint`].
pub(crate) type Lanes = u8;

/// Every lane.
pub(crate) const ALL_LANES: Lanes = Lanes::MAX;

/// Lane 0 of every byte of one SIMD register, and of every GPR byte in
/// either half of a [`ByteSet`].
const LANE0: u64 = u64::MAX / 0xff;

/// The lanes in which `x`, a per-byte mask of 8-byte words, has a set
/// bit.
fn fold_lanes(x: u64) -> Lanes {
    let x = x | x >> 32;
    let x = x | x >> 16;
    (x | x >> 8) as Lanes
}

/// The lanes of the GPR bytes in `set`.
fn gpr_lanes(set: ByteSet) -> Lanes {
    fold_lanes((set | set >> 64) as u64)
}

/// Every byte of one SIMD register in `lanes`.
fn simd_bytes_in(lanes: Lanes) -> u64 {
    u64::from(lanes) * LANE0
}

/// Every GPR byte in `lanes`: the same eight-byte pattern in both
/// halves of the set.
fn gpr_bytes_in(lanes: Lanes) -> ByteSet {
    let half = ByteSet::from(simd_bytes_in(lanes));
    half << 64 | half
}

/// The registers in `set`, one bit each, in register order.
fn regs_in(mut set: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let r = (set != 0).then(|| set.trailing_zeros() as usize)?;
        set &= set - 1;
        Some(r)
    })
}

/// Exact taint: the set of bytes currently differing from the golden
/// run, each by a non-zero delta.  A lane scan holds one corrupted
/// byte's taint per lane ([`Lanes`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Taint {
    /// GPR bytes (same packing as [`ByteSet`]).
    pub(crate) gpr: ByteSet,
    /// One byte-mask per SIMD register (64 bytes each), written only
    /// through [`Taint::set_simd`].
    simd: [u64; 16],
    /// The SIMD registers whose mask is non-zero, one bit each, and no
    /// others: a stale bit would make equal taints compare unequal,
    /// and a missing one would hide a tainted register from
    /// [`Taint::lanes`], so that a lane still holding taint closes
    /// `Masked`.
    occupied: u16,
}

impl Taint {
    pub(crate) fn is_clear(&self) -> bool {
        self.gpr == 0 && self.occupied == 0
    }

    /// The taint mask of SIMD register `r`.
    pub(crate) fn simd(&self, r: usize) -> u64 {
        self.simd[r]
    }

    /// Sets the taint mask of SIMD register `r`, and its occupied bit.
    fn set_simd(&mut self, r: usize, mask: u64) {
        self.simd[r] = mask;
        self.occupied = self.occupied & !(1 << r) | u16::from(mask != 0) << r;
    }

    /// The SIMD registers holding taint, one bit each.
    pub(crate) fn occupied(&self) -> u16 {
        self.occupied
    }

    /// Every SIMD register holding taint, with its mask, in register
    /// order.
    pub(crate) fn simd_masks(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        regs_in(self.occupied).map(|r| (r, self.simd[r]))
    }

    /// The lanes holding SIMD taint.
    fn simd_lanes(&self) -> Lanes {
        fold_lanes(self.simd_masks().fold(0, |acc, (_, m)| acc | m))
    }

    /// The lanes holding any taint.
    fn lanes(&self) -> Lanes {
        gpr_lanes(self.gpr) | self.simd_lanes()
    }

    /// Drops the taint of every lane outside `lanes`.
    pub(crate) fn retain(&mut self, lanes: Lanes) {
        self.gpr &= gpr_bytes_in(lanes);
        let keep = simd_bytes_in(lanes);
        for r in regs_in(self.occupied) {
            self.set_simd(r, self.simd[r] & keep);
        }
    }

    fn gpr_view(&self, g: Gpr) -> u128 {
        (self.gpr >> (g.index() * 8)) & 0xff
    }

    fn set_gpr_view(&mut self, g: Gpr, bytes: u128) {
        self.gpr = (self.gpr & !reg_bytes(g)) | (bytes << (g.index() * 8));
    }
}

/// The lanes of `taint` that may still be read where the GPR bytes
/// `live` are live: each lane with a live GPR byte, and each lane with
/// SIMD taint, since SIMD registers have no liveness.
fn live_lanes(taint: &Taint, live: ByteSet) -> Lanes {
    gpr_lanes(taint.gpr & live) | taint.simd_lanes()
}

/// The verdict units of `dest`, grouped for the lane scan: unit `k` is
/// lane `k % n` of group `k / n`, where `n` is the returned group size.
/// A GPR destination is one group of its bytes, an `rdx:rax` pair two
/// (the rax bytes, then the rdx bytes), and a SIMD destination one per
/// eight bytes.  RFLAGS has no group: a flipped condition bit can
/// redirect any dependent branch, and no taint models that.
pub(crate) fn group_size(dest: DestClass) -> Option<usize> {
    match dest {
        DestClass::Gpr(r) => Some(r.width.bytes() as usize),
        DestClass::RaxRdxPair(w) => Some(w.bytes() as usize),
        DestClass::Xmm(_) | DestClass::Ymm(_) | DestClass::Zmm(_) => Some(8),
        DestClass::Rflags | DestClass::None => None,
    }
}

/// The taint flips in the units of group `g` of `dest` introduce, each
/// unit's byte in its own lane (see [`group_size`]).
pub(crate) fn group_seed(dest: DestClass, g: usize) -> Taint {
    let mut t = Taint::default();
    let simd = 0xffu64 << (8 * g);
    match dest {
        DestClass::Gpr(r) => t.gpr = read_bytes(r.gpr, r.width),
        DestClass::RaxRdxPair(w) => {
            t.gpr = read_bytes(if g == 0 { Gpr::Rax } else { Gpr::Rdx }, w);
        }
        DestClass::Xmm(x) => t.set_simd(x.index(), simd),
        DestClass::Ymm(y) => t.set_simd(y.index(), simd),
        DestClass::Zmm(z) => t.set_simd(z.index(), simd),
        DestClass::Rflags | DestClass::None => {}
    }
    t
}

/// Where a jump goes, resolved once per function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    /// The detector, `exit_function`.
    Exit,
    /// A block of the function, by index.
    Block(u32),
    /// A label the function does not define.
    Unresolved,
}

/// The function a `call` enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Callee {
    /// The detector, `exit_function`.
    Exit,
    /// The output intrinsic, `print_i64`.
    Print,
    /// Any other function.
    Other,
}

/// How an instruction moves control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Control {
    /// Falls through to the next instruction.
    Plain,
    /// A protection `jne exit_function`, the second half of every
    /// FERRUM/EDDI checker idiom.
    ExitCheck,
    /// Any other conditional jump.
    Branch(Target),
    /// An unconditional jump.
    Jump(Target),
    /// `ret`.
    Ret,
    /// `call`.
    Call(Callee),
}

/// The dataflow facts of one instruction that the taint scans consult
/// at every step, decoded once per function instead of once per step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstFacts {
    /// GPR bytes read ([`inst_reads`]).
    reads: ByteSet,
    /// GPR bytes overwritten ([`inst_kills`]).
    kills: ByteSet,
    /// Address registers of memory operands
    /// ([`Effects::addr`](crate::inst::Effects::addr)).
    addr: ByteSet,
    /// SIMD bytes read.
    simd_reads: [SimdBytes; 2],
    /// SIMD bytes written.  When the instruction's inputs are
    /// untainted the written bytes become golden, so this is also its
    /// SIMD taint kill.
    simd_write: SimdBytes,
    /// Emitted by a protection pass.
    pub(crate) protection: bool,
    /// How the instruction moves control.
    pub(crate) control: Control,
}

impl InstFacts {
    fn decode(ai: &AsmInst, target: impl Fn(&str) -> Target) -> InstFacts {
        let protection = ai.prov.is_protection();
        let control = match &ai.inst {
            Inst::Jcc {
                cc: Cc::Ne,
                target: t,
            } if protection && t == EXIT_FUNCTION => Control::ExitCheck,
            Inst::Jcc { target: t, .. } => Control::Branch(target(t)),
            Inst::Jmp { target: t } => Control::Jump(target(t)),
            Inst::Ret => Control::Ret,
            Inst::Call { target: t } if t == EXIT_FUNCTION => Control::Call(Callee::Exit),
            Inst::Call { target: t } if t == PRINT_I64 => Control::Call(Callee::Print),
            Inst::Call { .. } => Control::Call(Callee::Other),
            _ => Control::Plain,
        };
        let effects = ai.inst.effects();
        let (reads, kills) = abi_reads_kills(&ai.inst, &effects);
        InstFacts {
            reads,
            kills,
            addr: effects.addr,
            simd_reads: effects.simd_read,
            simd_write: effects.simd_write,
            protection,
            control,
        }
    }

    /// The lanes in which the instruction reads a tainted GPR or SIMD
    /// byte.
    pub(crate) fn read_lanes(&self, taint: &Taint) -> Lanes {
        let [(a, am), (b, bm)] = self.simd_reads;
        gpr_lanes(self.reads & taint.gpr)
            | fold_lanes(taint.simd(a as usize) & am | taint.simd(b as usize) & bm)
    }

    /// Applies, in `lanes`, the writes of an instruction that reads no
    /// taint there: it computes exactly the golden values, so its
    /// writes are exact taint kills.  Returns whether a tainted byte
    /// was overwritten.
    pub(crate) fn kill(&self, taint: &mut Taint, lanes: Lanes) -> bool {
        let gpr = taint.gpr & self.kills & gpr_bytes_in(lanes);
        taint.gpr ^= gpr;
        let (r, m) = (self.simd_write.0 as usize, self.simd_write.1);
        let simd = taint.simd(r) & m & simd_bytes_in(lanes);
        if simd != 0 {
            taint.set_simd(r, taint.simd(r) ^ simd);
        }
        gpr != 0 || simd != 0
    }
}

/// The [`InstFacts`] of every instruction of one function, block after
/// block, with jump targets resolved to block indices: each
/// instruction's effects are decoded once, and the function's liveness
/// is derived from this table.
#[derive(Default)]
pub(crate) struct FunctionFacts {
    insts: Vec<InstFacts>,
    /// Block `b`'s facts are `insts[starts[b]..starts[b + 1]]`.
    starts: Vec<usize>,
}

impl FunctionFacts {
    /// Decodes `f`, whose [`block_labels`] are `labels`.
    pub(crate) fn build(f: &AsmFunction, labels: &HashMap<&str, usize>) -> FunctionFacts {
        let mut facts = FunctionFacts::default();
        facts.decode(f, labels);
        facts
    }

    /// Decodes `f`, whose [`block_labels`] are `labels`, into this
    /// table's buffers.
    fn decode(&mut self, f: &AsmFunction, labels: &HashMap<&str, usize>) {
        let target = |t: &str| {
            if t == EXIT_FUNCTION {
                Target::Exit
            } else {
                labels
                    .get(t)
                    .map_or(Target::Unresolved, |&bi| Target::Block(bi as u32))
            }
        };
        self.starts.clear();
        self.insts.clear();
        for b in &f.blocks {
            self.starts.push(self.insts.len());
            let facts = b.insts.iter().map(|ai| InstFacts::decode(ai, target));
            self.insts.extend(facts);
        }
        self.starts.push(self.insts.len());
    }

    /// The facts of block `bi`, one per instruction.
    pub(crate) fn block(&self, bi: usize) -> &[InstFacts] {
        &self.insts[self.starts[bi]..self.starts[bi + 1]]
    }

    /// The `(reads, kills)` of every instruction of block `bi`.
    fn reads_kills(
        &self,
        bi: usize,
    ) -> impl DoubleEndedIterator<Item = (ByteSet, ByteSet)> + ExactSizeIterator + '_ {
        self.block(bi).iter().map(|f| (f.reads, f.kills))
    }

    /// The byte liveness of the function, whose CFG is `cfg`.
    fn liveness(&self, cfg: &Cfg) -> Liveness {
        let blocks: Vec<(ByteSet, ByteSet)> = (0..self.starts.len() - 1)
            .map(|bi| use_def(self.reads_kills(bi)))
            .collect();
        Liveness::solve(cfg, &blocks)
    }
}

/// The lanes in which the *value* of operand `op` (read at width `w`)
/// carries taint.  Memory values are never tainted: the scan bails at
/// any tainted store, so memory in the scanned region is golden.
fn value_lanes(op: &Operand, w: Width, taint: &Taint) -> Lanes {
    match op {
        Operand::Reg(r) => gpr_lanes(taint.gpr & read_bytes(r.gpr, w)),
        Operand::Imm(_) | Operand::Mem(_) => 0,
    }
}

/// True when the instruction after `facts[i]` is a protection
/// `jne exit_function`.
fn next_is_exit_check(facts: &[InstFacts], i: usize) -> bool {
    facts
        .get(i + 1)
        .is_some_and(|f| f.control == Control::ExitCheck)
}

/// What one step of a scan at a protection instruction did in the
/// lanes where the instruction reads taint.  A lane in neither set
/// propagated exactly: its taint was updated in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step {
    /// A checker is guaranteed to fire: these lanes are detected.
    pub(crate) detected: Lanes,
    /// These lanes lost exactness.
    pub(crate) bailed: Lanes,
}

/// Handles a protection instruction consuming tainted data in the
/// lanes `reading`: recognise the checker idioms (→ [`Step::detected`]),
/// propagate through exactness-preserving data movement, or bail.
/// `facts` are the block's, one per instruction of `block`.
///
/// This is the one transfer function of both taint scans: the coverage
/// scan calls it with every lane of a site that reads taint here, the
/// escape scan with its single lane.  A transfer updates all lanes at
/// once, so it must keep every byte at its offset mod 8, and it must
/// write exactly the bytes [`Inst::effects`] lists: in a lane that
/// reads no taint it then stores golden values, which is the kill the
/// caller applies there.
pub(crate) fn protection_step(
    block: &[AsmInst],
    facts: &[InstFacts],
    i: usize,
    taint: &mut Taint,
    reading: Lanes,
) -> Step {
    let inst = &block[i].inst;
    // A memory operand addressed through a tainted register accesses a
    // diverging location: exactness is lost.
    let lost = gpr_lanes(facts[i].addr & taint.gpr) & reading;
    let reading = reading & !lost;
    let bail = |bailed: Lanes| Step {
        detected: 0,
        bailed: lost | bailed,
    };
    let checked = |fires: Lanes| {
        if next_is_exit_check(facts, i) {
            Step {
                detected: reading & fires,
                bailed: lost | reading & !fires,
            }
        } else {
            bail(reading)
        }
    };
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
        } => checked(value_lanes(src, *w, taint) ^ value_lanes(dst, *w, taint)),
        // Batch flush test: `vptest r, r` + `jne exit_function`.
        // Golden ZF was always set, so the golden accumulator is zero;
        // the tainted byte makes it non-zero and the branch fires.
        // Distinct operands give no such guarantee.
        Inst::Vptest { a, b } if a == b => checked(ALL_LANES),
        Inst::Vptest128 { a, b } if a == b => checked(ALL_LANES),
        Inst::Vptest512 { a, b } if a == b => checked(ALL_LANES),
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
            taint.gpr &= !crate::analysis::liveness::kill_bytes(d.gpr, *w);
            taint.gpr |= moved << (d.gpr.index() * 8);
            bail(0)
        }
        // GPR → XMM lane 0 (`movq`): lane 0 takes the source bytes,
        // lane 1 is zeroed (golden), upper lanes are preserved.
        Inst::MovqToXmm {
            src: Operand::Reg(s),
            dst,
        } => {
            let moved = (taint.gpr_view(s.gpr) & 0xff) as u64;
            let d = dst.0 as usize;
            taint.set_simd(d, taint.simd(d) & !0xffff | moved);
            bail(0)
        }
        // GPR → XMM lane insert: writes exactly the 8-byte lane.
        Inst::Pinsrq {
            lane,
            src: Operand::Reg(s),
            dst,
        } => {
            let moved = (taint.gpr_view(s.gpr) & 0xff) as u64;
            let m = 0xffu64 << (8 * lane);
            let d = dst.0 as usize;
            taint.set_simd(d, taint.simd(d) & !m | moved << (8 * lane));
            bail(0)
        }
        // XMM lane → GPR (W64 destination kills all eight bytes).
        Inst::MovqFromXmm { src, dst } => {
            let moved = (taint.simd(src.0 as usize) & 0xff) as u128;
            taint.set_gpr_view(dst.gpr, moved);
            bail(0)
        }
        Inst::Pextrq { lane, src, dst } => {
            let moved = ((taint.simd(src.0 as usize) >> (8 * lane)) & 0xff) as u128;
            taint.set_gpr_view(dst.gpr, moved);
            bail(0)
        }
        // 128-bit lane merge into a YMM: exact byte shuffle.  The
        // VEX.256 write zeroes the top 32 bytes of the destination
        // register, so they become golden.
        Inst::Vinserti128 {
            lane,
            src,
            src2,
            dst,
        } => {
            let xs = taint.simd(src.0 as usize) & 0xffff;
            let ys = taint.simd(src2.0 as usize) & 0xffff_ffff;
            let merged = (ys & !(0xffffu64 << (16 * lane))) | (xs << (16 * lane));
            taint.set_simd(dst.0 as usize, merged);
            bail(0)
        }
        // 256-bit lane merge into a ZMM: writes all 64 bytes.
        Inst::Vinserti64x4 {
            lane,
            src,
            src2,
            dst,
        } => {
            let ys = taint.simd(src.0 as usize) & 0xffff_ffff;
            let zs = taint.simd(src2.0 as usize);
            let merged = (zs & !(0xffff_ffffu64 << (32 * lane))) | (ys << (32 * lane));
            taint.set_simd(dst.0 as usize, merged);
            bail(0)
        }
        // One-side-per-byte tainted XOR: each tainted result byte
        // differs by exactly the one operand's delta (non-zero).  A
        // byte tainted on *both* sides could cancel — its lane bails.
        // VEX semantics zero every byte of the destination above the
        // operand width.
        Inst::Vpxor { a, b, dst } => {
            let at = taint.simd(a.0 as usize) & 0xffff_ffff;
            let bt = taint.simd(b.0 as usize) & 0xffff_ffff;
            taint.set_simd(dst.0 as usize, at | bt);
            bail(fold_lanes(at & bt))
        }
        Inst::Vpxor128 { a, b, dst } => {
            let at = taint.simd(a.0 as usize) & 0xffff;
            let bt = taint.simd(b.0 as usize) & 0xffff;
            taint.set_simd(dst.0 as usize, at | bt);
            bail(fold_lanes(at & bt))
        }
        Inst::Vpxor512 { a, b, dst } => {
            let at = taint.simd(a.0 as usize);
            let bt = taint.simd(b.0 as usize);
            taint.set_simd(dst.0 as usize, at | bt);
            bail(fold_lanes(at & bt))
        }
        _ => bail(reading),
    }
}

/// The verdicts of a lane scan, filled in as lanes close and packed
/// like [`SiteCoverage`]'s: lane `j`'s verdict is
/// `StaticVerdict::ALL[b0_j | b1_j << 1]`.  A lane never opened reads
/// `Unknown`.
#[derive(Debug, Clone, Copy)]
struct LaneVerdicts {
    /// The lanes still undecided.
    open: Lanes,
    /// Bit 0 of each closed lane's verdict.
    b0: Lanes,
    /// Bit 1 of each closed lane's verdict.
    b1: Lanes,
    /// The lanes closed `Unknown` at a bail of a protection instruction
    /// that falls through ([`SiteCoverage::widened`]).
    widened: Lanes,
}

impl LaneVerdicts {
    /// Opens `lanes`.
    fn new(open: Lanes) -> LaneVerdicts {
        LaneVerdicts {
            open,
            b0: !open,
            b1: !open,
            widened: 0,
        }
    }

    /// Gives every open lane of `lanes` the verdict `v` and closes it.
    fn close(&mut self, lanes: Lanes, v: StaticVerdict) {
        let l = lanes & self.open;
        self.open &= !l;
        if v as u8 & 1 != 0 {
            self.b0 |= l;
        }
        if v as u8 & 2 != 0 {
            self.b1 |= l;
        }
    }

    /// Closes `lanes` where the scan stops with taint still held and
    /// the GPR bytes `live` live after: a lane is `Masked` iff its
    /// tainted bytes are provably dead from here on, else `Unknown`.
    fn close_at_stop(&mut self, lanes: Lanes, taint: &Taint, live: ByteSet) {
        self.close(lanes & live_lanes(taint, live), StaticVerdict::Unknown);
        self.close(lanes, StaticVerdict::Masked);
    }
}

/// Classifies the lanes `open` of a destination that `block[i]` writes
/// back with the corruption `taint` ([`group_seed`]): one forward scan
/// within the block tracks every lane's exact tainted-byte set at
/// once.  Returns one verdict per lane, lanes outside `open` reading
/// `Unknown`, and the widened lanes.
fn scan_lanes(
    block: &[AsmInst],
    facts: &[InstFacts],
    after: &[ByteSet],
    i: usize,
    mut taint: Taint,
    open: Lanes,
) -> LaneVerdicts {
    let mut lanes = LaneVerdicts::new(open);
    // Dead at write-back: the corrupted byte is overwritten on every
    // path before any read.  SIMD registers have no liveness, so SIMD
    // masking is only discovered by the scan's exact overwrite
    // tracking.
    lanes.close(!live_lanes(&taint, after[i]), StaticVerdict::Masked);
    // The lanes still holding taint, recomputed only where the taint
    // changed: after a kill that hit, a protection transfer, or a
    // `retain`, which keeps the open ones.
    let mut held = taint.lanes();
    if held & !lanes.open != 0 {
        taint.retain(lanes.open);
        held &= lanes.open;
    }
    for (i, fact) in facts.iter().enumerate().skip(i + 1) {
        // A lane whose every corrupted byte was overwritten with its
        // golden value has converged with the golden run.
        lanes.close(!held, StaticVerdict::Masked);
        if lanes.open == 0 {
            return lanes;
        }
        let was_open = lanes.open;
        let reading = fact.read_lanes(&taint);
        if reading != 0 {
            if fact.protection {
                let step = protection_step(block, facts, i, &mut taint, reading);
                held = taint.lanes();
                lanes.close(step.detected, StaticVerdict::Detected);
                // Every open lane has walked straight-line code to
                // here, so an escape scan would bail here too.
                if fact.control == Control::Plain {
                    lanes.widened |= step.bailed & lanes.open;
                }
                // The instruction consumed tainted data in a way the
                // propagation rules don't model (a store, arithmetic,
                // a cancelling combine): the corruption may now live
                // in memory or flags, so deadness of the *registers*
                // proves nothing — never claim Masked here.
                lanes.close(step.bailed, StaticVerdict::Unknown);
            } else {
                lanes.close(reading, StaticVerdict::Vulnerable);
            }
        }
        let rest = lanes.open & !reading;
        match fact.control {
            Control::Plain => {
                if fact.kill(&mut taint, rest) {
                    held = taint.lanes();
                }
            }
            // Flags are untainted (any tainted flag-writer would have
            // detected or bailed above), so this checker branch falls
            // through exactly as in the golden run.
            Control::ExitCheck => {}
            // Control leaves the straight-line region on the golden
            // path; the liveness stop rule covers every successor
            // path.  A callee may also spill callee-saved registers or
            // merge SIMD accumulator lanes we cannot see from here:
            // only a fully-converged lane may cross a call.
            Control::Branch(_) | Control::Jump(_) | Control::Ret | Control::Call(_) => {
                lanes.close_at_stop(rest, &taint, after[i]);
            }
        }
        if lanes.open != was_open {
            taint.retain(lanes.open);
            held &= lanes.open;
        }
    }
    lanes.close(!held, StaticVerdict::Masked);
    lanes.close_at_stop(ALL_LANES, &taint, after[block.len() - 1]);
    lanes
}

/// Classifies every unit of `site`, the instruction `block[i]` with
/// destination `dest`: one lane scan per group of units
/// ([`group_size`]).  An RFLAGS unit stays `Unknown`, widened.
fn classify_site(
    block: &[AsmInst],
    facts: &[InstFacts],
    after: &[ByteSet],
    i: usize,
    dest: DestClass,
    site: &mut SiteCoverage,
) {
    let Some(n) = group_size(dest) else {
        site.widened = 1;
        return;
    };
    let units = site.units();
    for g in 0..units.div_ceil(n) {
        let open = ALL_LANES >> (8 - n.min(units - g * n));
        let scan = scan_lanes(block, facts, after, i, group_seed(dest, g), open);
        site.set_lanes(g * n, open, &scan);
    }
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

/// True when `manifest` vouches for the `Detected` claims of a block:
/// every checker idiom the scan can credit lives in the block, so a
/// claim stands iff *some* manifest-consistent checker exists there.
/// Without a manifest every claim stands.
fn block_vouched(
    block: &[AsmInst],
    facts: &[InstFacts],
    manifest: Option<&ProtectionManifest>,
) -> bool {
    manifest.is_none_or(|m| {
        facts.iter().enumerate().any(|(i, fact)| {
            fact.protection
                && next_is_exit_check(facts, i)
                && detection_matches_manifest(&block[i].inst, m)
        })
    })
}

/// Classifies every injectable site of `f`, advancing the flat `pc`.
/// `facts` and `after` are work buffers.
fn analyze_function(
    f: &AsmFunction,
    pc: &mut usize,
    manifest: Option<&ProtectionManifest>,
    facts: &mut FunctionFacts,
    after: &mut Vec<ByteSet>,
) -> FunctionCoverage {
    let labels = block_labels(f);
    facts.decode(f, &labels);
    let lv = facts.liveness(&Cfg::with_labels(f, &labels));
    let mut sites = Vec::new();
    let mut rollup = VerdictCounts::default();
    for (bi, b) in f.blocks.iter().enumerate() {
        let bf = facts.block(bi);
        live_after(facts.reads_kills(bi), lv.live_out[bi], after);
        let vouched = block_vouched(&b.insts, bf, manifest);
        for (i, ai) in b.insts.iter().enumerate() {
            let this_pc = *pc;
            *pc += 1;
            let dest = ai.inst.dest_class();
            let Some(bits) = dest.injectable_bits() else {
                continue;
            };
            let mut site = SiteCoverage::unknown(this_pc, bits, ai.prov);
            classify_site(&b.insts, bf, after, i, dest, &mut site);
            if !vouched {
                for k in 0..site.units() {
                    if site.verdict(k) == StaticVerdict::Detected {
                        site.set_verdict(k, StaticVerdict::Unknown);
                    }
                }
            }
            rollup.merge(&site.counts());
            sites.push(site);
        }
    }
    FunctionCoverage {
        name: f.name.clone(),
        sites,
        rollup,
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
        assert_eq!(
            site.verdicts().collect::<Vec<_>>(),
            vec![StaticVerdict::Masked; 8]
        );
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
        assert_eq!(
            dup.verdicts().collect::<Vec<_>>(),
            vec![StaticVerdict::Detected; 8]
        );
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
        assert_eq!(
            site.verdicts().collect::<Vec<_>>(),
            vec![StaticVerdict::Vulnerable; 8]
        );
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
        assert_eq!(
            site.verdicts().collect::<Vec<_>>(),
            vec![StaticVerdict::Unknown; 8]
        );
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
        assert_eq!(
            orig.verdicts().collect::<Vec<_>>(),
            vec![StaticVerdict::Unknown; 4]
        );
        let dup = map.site(1).expect("w32 shadow-copy site");
        assert_eq!(dup.bits, 32);
        assert_eq!(
            dup.verdicts().collect::<Vec<_>>(),
            vec![StaticVerdict::Detected; 4]
        );
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
                cap.verdict(byte),
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
            r10.verdicts().all(|v| v != StaticVerdict::Detected),
            "cancelling xor must not be credited: {:?}",
            r10.verdicts().collect::<Vec<_>>()
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
        assert_eq!(idiv.verdict_for(64), idiv.verdict(8));
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
        let mech_total: usize = map.mechanism_rollup().iter().map(|(_, c)| c.total()).sum();
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
            demoted.site(1).unwrap().verdicts().collect::<Vec<_>>(),
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
            kept.site(1).unwrap().verdicts().collect::<Vec<_>>(),
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
        assert_eq!(
            pop.verdicts().collect::<Vec<_>>(),
            vec![StaticVerdict::Detected; 8]
        );
    }

    /// Parses a listing of `main` alone; `# prot:ferrum` marks a
    /// protection instruction.
    fn listing(body: &str) -> AsmProgram {
        crate::parser::parse_program(&format!(".globl main\nmain:\n{body}")).expect("parses")
    }

    /// The verdicts of the site at flat pc `pc` of `main`.
    fn verdicts_at(body: &str, pc: usize) -> Vec<StaticVerdict> {
        CoverageMap::analyze(&listing(body))
            .site(pc)
            .expect("site")
            .verdicts()
            .collect()
    }

    /// A verdict vector written one letter per unit: `M`asked,
    /// `D`etected, `V`ulnerable, `U`nknown.
    fn units(letters: &str) -> Vec<StaticVerdict> {
        letters
            .chars()
            .map(|c| match c {
                'M' => StaticVerdict::Masked,
                'D' => StaticVerdict::Detected,
                'V' => StaticVerdict::Vulnerable,
                'U' => StaticVerdict::Unknown,
                _ => panic!("verdict letter {c}"),
            })
            .collect()
    }

    #[test]
    fn narrow_reads_of_a_quadword_part_the_lanes() {
        // A W8 checker detects byte 0, a W16 application read consumes
        // byte 1, a W32 protection add loses bytes 2–3, and the
        // overwrite masks bytes 4–7.
        let body = "\
  movq $7, %rax
  cmpb %al, %r11b # prot:ferrum
  jne exit_function # prot:ferrum
  addw %ax, %cx
  addl %eax, %r11d # prot:ferrum
  movq $0, %rax
  ret
";
        assert_eq!(verdicts_at(body, 0), units("DVUUMMMM"));
    }

    #[test]
    fn byte_and_doubleword_copies_carry_their_own_lanes() {
        // `movb` copies byte 0 into %r10, `movl` bytes 0–3 into %r11;
        // the W32 check then sees byte 0 on both sides (no claim) and
        // bytes 1–3 on one side only.  Bytes 4–7 lived only in %rax.
        let body = "\
  movq $7, %rax
  movb %al, %r10b # prot:ferrum
  movl %eax, %r11d # prot:ferrum
  movq $0, %rax
  cmpl %r11d, %r10d # prot:ferrum
  jne exit_function # prot:ferrum
  ret
";
        assert_eq!(verdicts_at(body, 0), units("UDDDMMMM"));
    }

    #[test]
    fn pextrq_moves_one_group_of_an_xmm_site() {
        // Bytes 8–15 reach %rdx; a W32 check detects 8–11, and 12–15
        // die in %rdx.  Bytes 0–7 are overwritten in %xmm0.
        let body = "\
  movq %rcx, %xmm0
  pextrq $1, %xmm0, %rdx # prot:ferrum
  cmpl %edx, %r11d # prot:ferrum
  jne exit_function # prot:ferrum
  movq %r8, %xmm0
  ret
";
        assert_eq!(verdicts_at(body, 0), units("MMMMMMMMDDDDMMMM"));
    }

    #[test]
    fn vpxor_tainted_on_both_sides_in_one_lane_bails_that_lane_only() {
        // Byte 0 reaches both `vpxor` operands and could cancel; bytes
        // 1–7 reach one operand and the flush test detects them.
        let body = "\
  movq $7, %rax
  movq %rax, %xmm0 # prot:ferrum
  movb %al, %r10b # prot:ferrum
  movq %r10, %xmm1 # prot:ferrum
  vpxor %xmm0, %xmm1, %xmm2 # prot:ferrum
  vptest %xmm2, %xmm2 # prot:ferrum
  jne exit_function # prot:ferrum
  ret
";
        assert_eq!(verdicts_at(body, 0), units("UDDDDDDD"));
    }

    #[test]
    fn xor_checker_kills_the_lanes_it_does_not_read() {
        // The W32 `xor` checker reads bytes 0–3 of the duplicate and
        // zero-extends its write over bytes 4–7.  For the original in
        // %rax bytes 0–3 sit on both sides (no claim) and bytes 4–7
        // reach `ret`.
        let body = "\
  movq $7, %rax
  movq %rax, %r10 # prot:ferrum
  xorl %eax, %r10d # prot:ferrum
  jne exit_function # prot:ferrum
  ret
";
        assert_eq!(verdicts_at(body, 1), units("DDDDMMMM"));
        assert_eq!(verdicts_at(body, 0), units("UUUUVVVV"));
    }

    #[test]
    fn call_stops_the_scan_with_dead_and_live_lanes() {
        // %rbx survives the call; bytes 0–1 are overwritten before the
        // `push` reads the rest.
        let body = "\
  movq $7, %rbx
  call helper
  movw $0, %bx
  pushq %rbx
  ret
";
        assert_eq!(verdicts_at(body, 0), units("MMUUUUUU"));
    }

    /// A `vpxorq` result copied into the top half of %zmm3, then every
    /// copy cleared: the `vinserti128` reads the corrupted %ymm2 but
    /// writes golden bytes 0–15 and, as a VEX.256 write, zeroes bytes
    /// 32–63 of %zmm3; the `vpxor` overwrites %zmm2.
    const ZMM_CLEARED: &str = "\
  vpxorq %zmm0, %zmm1, %zmm2
  vinserti64x4 $1, %ymm2, %zmm3, %zmm3 # prot:ferrum
  vinserti128 $0, %xmm4, %ymm2, %ymm3 # prot:ferrum
  vpxor %ymm4, %ymm4, %ymm2 # prot:ferrum
";

    #[test]
    fn vex256_writes_clear_the_upper_zmm_half() {
        // Bytes 0–15 are masked with or without a flush test after the
        // block: no copy survives.  Bytes 16–31 stay in %zmm3, where
        // the test detects them; bytes 32–63 never leave %zmm2.
        let checked = format!(
            "{ZMM_CLEARED}  vptestq %zmm3, %zmm3 # prot:ferrum\n  jne exit_function # prot:ferrum\n  ret\n"
        );
        let expect = |mid: &str| units(&format!("{}{}{}", "M".repeat(16), mid, "M".repeat(32)));
        assert_eq!(verdicts_at(&checked, 0), expect(&"D".repeat(16)));
        assert_eq!(
            verdicts_at(&format!("{ZMM_CLEARED}  ret\n"), 0),
            expect(&"U".repeat(16))
        );
        // The `vpxor` arm: a tainted %ymm2 read into %zmm3 also zeroes
        // the stale copy in its top half, and `movq` then overwrites
        // bytes 0–15.
        let vpxor = "\
  vpxorq %zmm0, %zmm1, %zmm2
  vinserti64x4 $1, %ymm2, %zmm3, %zmm3 # prot:ferrum
  vpxor %ymm2, %ymm4, %ymm3 # prot:ferrum
  vpxor %ymm4, %ymm4, %ymm2 # prot:ferrum
  movq %r8, %xmm3
  vptestq %zmm3, %zmm3 # prot:ferrum
  jne exit_function # prot:ferrum
  ret
";
        assert_eq!(verdicts_at(vpxor, 0), expect(&"D".repeat(16)));
    }

    /// One random instruction over four GPRs and four SIMD registers,
    /// weighted toward the transfers, checkers and stops the scan
    /// models; three in four are protection instructions.
    fn random_inst(rng: &mut ferrum_rng::Rng64) -> AsmInst {
        let form = rng.gen_below(18);
        random_inst_of(rng, form)
    }

    /// The forms of [`random_inst_of`] that [`protection_step`] models
    /// as a transfer.
    const TRANSFERS: [u64; 9] = [0, 1, 4, 5, 6, 7, 8, 9, 10];

    /// A random instruction of the given form.
    fn random_inst_of(rng: &mut ferrum_rng::Rng64, form: u64) -> AsmInst {
        use crate::reg::{Xmm, Ymm, Zmm};
        const GPRS: [Gpr; 4] = [Gpr::Rax, Gpr::Rcx, Gpr::R10, Gpr::R11];
        let g = |rng: &mut ferrum_rng::Rng64| GPRS[rng.gen_range(0..4usize)];
        let w = |rng: &mut ferrum_rng::Rng64| Width::ALL[rng.gen_range(0..4usize)];
        let r = |rng: &mut ferrum_rng::Rng64| Operand::Reg(Reg::gpr(g(rng), w(rng)));
        let v = |rng: &mut ferrum_rng::Rng64| rng.gen_range(0..4usize) as u8;
        let lane = |rng: &mut ferrum_rng::Rng64| rng.gen_range(0..2usize) as u8;
        let inst = match form {
            0 | 1 => {
                let w = w(rng);
                Inst::Mov {
                    w,
                    src: Operand::Reg(Reg::gpr(g(rng), w)),
                    dst: Operand::Reg(Reg::gpr(g(rng), w)),
                }
            }
            2 => Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(0),
                dst: Operand::Reg(Reg::q(g(rng))),
            },
            3 => Inst::Mov {
                w: Width::W64,
                src: Operand::Mem(MemRef::base_disp(g(rng), 8)),
                dst: Operand::Reg(Reg::q(g(rng))),
            },
            4 => Inst::MovqToXmm {
                src: Operand::Reg(Reg::q(g(rng))),
                dst: Xmm::new(v(rng)),
            },
            5 => Inst::Pinsrq {
                lane: lane(rng),
                src: Operand::Reg(Reg::q(g(rng))),
                dst: Xmm::new(v(rng)),
            },
            6 => Inst::MovqFromXmm {
                src: Xmm::new(v(rng)),
                dst: Reg::q(g(rng)),
            },
            7 => Inst::Pextrq {
                lane: lane(rng),
                src: Xmm::new(v(rng)),
                dst: Reg::q(g(rng)),
            },
            8 => Inst::Vinserti128 {
                lane: lane(rng),
                src: Xmm::new(v(rng)),
                src2: Ymm::new(v(rng)),
                dst: Ymm::new(v(rng)),
            },
            9 => Inst::Vinserti64x4 {
                lane: lane(rng),
                src: Ymm::new(v(rng)),
                src2: Zmm::new(v(rng)),
                dst: Zmm::new(v(rng)),
            },
            10 => match rng.gen_below(3) {
                0 => Inst::Vpxor128 {
                    a: Xmm::new(v(rng)),
                    b: Xmm::new(v(rng)),
                    dst: Xmm::new(v(rng)),
                },
                1 => Inst::Vpxor {
                    a: Ymm::new(v(rng)),
                    b: Ymm::new(v(rng)),
                    dst: Ymm::new(v(rng)),
                },
                _ => Inst::Vpxor512 {
                    a: Zmm::new(v(rng)),
                    b: Zmm::new(v(rng)),
                    dst: Zmm::new(v(rng)),
                },
            },
            11 => Inst::Cmp {
                w: w(rng),
                src: r(rng),
                dst: r(rng),
            },
            12 => Inst::Alu {
                op: if rng.gen_below(2) == 0 {
                    AluOp::Xor
                } else {
                    AluOp::Add
                },
                w: w(rng),
                src: r(rng),
                dst: r(rng),
            },
            13 => {
                let x = v(rng);
                match rng.gen_below(3) {
                    0 => Inst::Vptest128 {
                        a: Xmm::new(x),
                        b: Xmm::new(x),
                    },
                    1 => Inst::Vptest {
                        a: Ymm::new(x),
                        b: Ymm::new(x),
                    },
                    _ => Inst::Vptest512 {
                        a: Zmm::new(x),
                        b: Zmm::new(x),
                    },
                }
            }
            14 => Inst::Jcc {
                cc: Cc::Ne,
                target: EXIT_FUNCTION.into(),
            },
            15 => Inst::Push { src: r(rng) },
            16 => Inst::Call {
                target: "helper".into(),
            },
            _ => Inst::Nop,
        };
        if rng.gen_below(4) == 0 {
            app(inst)
        } else {
            prot(inst)
        }
    }

    /// `main` of one random block of 2–15 [`random_inst`]s and a
    /// `ret`, drawn from `seed`.
    pub(crate) fn random_program(seed: u64) -> AsmProgram {
        let rng = &mut ferrum_rng::Rng64::seed_from_u64(seed);
        let mut insts = Vec::new();
        for _ in 0..rng.gen_range(2..16usize) {
            let inst = random_inst(rng);
            // Most checkers come with their `jne exit_function`.
            let checker = inst.inst.writes_flags() && rng.gen_below(4) != 0;
            insts.push(inst);
            if checker {
                insts.push(prot(Inst::Jcc {
                    cc: Cc::Ne,
                    target: EXIT_FUNCTION.into(),
                }));
            }
        }
        insts.push(app(Inst::Ret));
        program(insts)
    }

    #[test]
    fn scanning_lanes_together_matches_scanning_each_alone() {
        // Random blocks: every group of every site is scanned with all
        // of its lanes open, then once per lane with that lane alone.
        // A seed that fails regenerates its block.
        let mut parted = 0usize;
        for seed in 0..3000u64 {
            let p = random_program(seed);
            let f = &p.functions[0];
            let labels = block_labels(f);
            let facts = FunctionFacts::build(f, &labels);
            let cfg = Cfg::with_labels(f, &labels);
            // The fact table's liveness is `Liveness`'s own.
            let lv = facts.liveness(&cfg);
            let mut after = Vec::new();
            live_after(facts.reads_kills(0), lv.live_out[0], &mut after);
            assert_eq!(after, Liveness::compute(f, &cfg).live_after_each(f, 0));
            let (block, facts) = (&f.blocks[0].insts, facts.block(0));
            for (i, ai) in block.iter().enumerate() {
                let (Some(bits), Some(n)) =
                    (ai.inst.injectable_bits(), group_size(ai.inst.dest_class()))
                else {
                    continue;
                };
                for g in 0..bits as usize / 8 / n {
                    let seed_taint = group_seed(ai.inst.dest_class(), g);
                    let open = ((1u16 << n) - 1) as Lanes;
                    let all = scan_lanes(block, facts, &after, i, seed_taint.clone(), open);
                    for j in 0..n {
                        let alone = scan_lanes(block, facts, &after, i, seed_taint.clone(), 1 << j);
                        let lane =
                            |l: &LaneVerdicts| (l.b0 >> j & 1, l.b1 >> j & 1, l.widened >> j & 1);
                        assert_eq!(
                            lane(&all),
                            lane(&alone),
                            "seed {seed}: site {i} `{}` group {g} lane {j}",
                            crate::printer::print_inst(&ai.inst)
                        );
                    }
                    let (b0, b1) = (all.b0 & open, all.b1 & open);
                    parted += usize::from((b0 != 0 && b0 != open) || (b1 != 0 && b1 != open));
                }
            }
        }
        // About 900 groups part lanes; the loop must keep doing so to
        // show anything.
        assert!(parted > 500, "only {parted} groups parted lanes");
    }

    /// Checks that the occupied-register set of `taint` is exact and
    /// that `lanes()` matches a fold over all sixteen masks.
    fn assert_exact(taint: &Taint, what: impl Fn() -> String) {
        let dense = (0..16).filter(|&r| taint.simd[r] != 0);
        let occupied = dense.fold(0u16, |set, r| set | 1 << r);
        let simd = taint.simd.iter().fold(0, |acc, &m| acc | m);
        assert_eq!(
            (taint.occupied, taint.lanes()),
            (occupied, gpr_lanes(taint.gpr) | fold_lanes(simd)),
            "{}",
            what()
        );
    }

    #[test]
    fn the_occupied_simd_set_is_exact_after_every_step() {
        // Random sparse taints walked through random blocks: after
        // every transfer, kill and `retain` the set names exactly the
        // registers with a non-zero mask, and a kill reports whether
        // it changed the taint (the lane scan recomputes its lanes on
        // that report).  Masks are sparse enough that a `retain` or a
        // kill often clears a register's last tainted byte.
        let (mut cleared, mut steps) = (0usize, 0usize);
        for seed in 0..3000u64 {
            // A random block led by one modelled transfer.
            let rng = &mut ferrum_rng::Rng64::seed_from_u64(seed);
            let form = TRANSFERS[rng.gen_range(0..TRANSFERS.len())];
            let mut p = random_program(seed);
            let lead = prot(random_inst_of(rng, form).inst);
            p.functions[0].blocks[0].insts.insert(0, lead);
            let f = &p.functions[0];
            let facts = FunctionFacts::build(f, &block_labels(f));
            let (block, facts) = (&f.blocks[0].insts, facts.block(0));
            let mut sparse =
                || rng.next_u64() & rng.next_u64() & rng.next_u64() >> rng.gen_below(64);
            let mut taint = Taint {
                gpr: ByteSet::from(sparse()) << 64 | ByteSet::from(sparse()),
                ..Taint::default()
            };
            for r in 0..16 {
                taint.set_simd(r, sparse());
            }
            assert_exact(&taint, || format!("seed {seed}: seeded"));
            for (i, fact) in facts.iter().enumerate() {
                let what = |step: &'static str| {
                    let inst = crate::printer::print_inst(&block[i].inst);
                    move || format!("seed {seed}: {step} at {i} `{inst}`")
                };
                let before = taint.occupied;
                let reading = fact.read_lanes(&taint);
                if fact.protection {
                    protection_step(block, facts, i, &mut taint, reading);
                    assert_exact(&taint, what("transfer"));
                    steps += 1;
                }
                let old = taint.clone();
                let hit = fact.kill(&mut taint, !reading);
                assert_exact(&taint, what("kill"));
                assert_eq!(hit, taint != old, "seed {seed}: kill at {i} reports {hit}");
                taint.retain(sparse() as Lanes);
                assert_exact(&taint, what("retain"));
                cleared += (before & !taint.occupied).count_ones() as usize;
            }
        }
        // The walk clears about 43,000 registers and takes about 25,000
        // protection steps; it must keep doing both to show anything.
        assert!(
            cleared > 20_000 && steps > 10_000,
            "{cleared} registers cleared, {steps} protection steps"
        );
    }

    #[test]
    fn transfers_write_exactly_the_effects_table() {
        // In the lanes where a modelled transfer reads no taint it
        // stores golden values over exactly the bytes `Inst::effects`
        // writes, which is the kill the scans apply there.
        for seed in 0..3000u64 {
            let rng = &mut ferrum_rng::Rng64::seed_from_u64(seed);
            let form = TRANSFERS[rng.gen_range(0..TRANSFERS.len())];
            let p = program(vec![prot(random_inst_of(rng, form).inst)]);
            let f = &p.functions[0];
            let facts = FunctionFacts::build(f, &block_labels(f));
            let (block, facts) = (&f.blocks[0].insts, facts.block(0));
            // About one byte in eight tainted.
            let mut sparse = || rng.next_u64() & rng.next_u64() & rng.next_u64();
            let mut taint = Taint {
                gpr: ByteSet::from(sparse()) << 64 | ByteSet::from(sparse()),
                ..Taint::default()
            };
            for r in 0..16 {
                taint.set_simd(r, sparse());
            }
            taint.retain(!facts[0].read_lanes(&taint));
            let mut killed = taint.clone();
            facts[0].kill(&mut killed, ALL_LANES);
            let step = protection_step(block, facts, 0, &mut taint, 0);
            assert_eq!(
                (step, taint),
                (
                    Step {
                        detected: 0,
                        bailed: 0
                    },
                    killed
                ),
                "seed {seed}: `{}`",
                crate::printer::print_inst(&block[0].inst)
            );
        }
    }
}
