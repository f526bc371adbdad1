//! FastFlip-style composition and incremental campaigns.
//!
//! The monolithic campaign re-injects the whole program after any
//! edit.  FastFlip (PAPERS.md) observes that per-section injection
//! results *compose*: a section's contribution to whole-program
//! vulnerability is its set of escaping faults mapped through the
//! consuming context, so editing one section only requires
//! re-injecting that section.  This module applies the idea to
//! FERRUM's per-function layer twice over:
//!
//! 1. **Verdict composition** ([`compose`]): the per-function escape
//!    footprints of [`SummaryMap`] are mapped through caller-side
//!    byte liveness at every call site.  An `Unknown` unit whose
//!    footprint is empty (every path converges before leaving the
//!    function), or whose escape is register-only and dead in every
//!    caller, is lifted to whole-program `Masked` — the composed
//!    analogue of the coverage map's intra-function deadness rule.
//!    Sound verdicts are never weakened and `Detected`/`Vulnerable`
//!    are adopted verbatim, so the composed map prunes at least as
//!    much as the local one and never contradicts a dynamic outcome
//!    the local map would not have contradicted.
//!
//! 2. **Incremental campaigns**: a stratified plan
//!    ([`crate::plan::FaultList::Stratified`]) samples each function's
//!    sites with a per-function RNG stream keyed by the function
//!    *name*; [`CampaignCache::from_result`] keeps its draws and
//!    outcomes per function content hash ([`function_hash`]).  Fed
//!    back as [`crate::plan::Reuse::Cache`] after an edit, only
//!    functions whose hash (or dynamic-site count) changed are
//!    re-injected; untouched functions replay their cached shard.
//!    The merged [`CampaignResult`] is **record-identical** to a full
//!    stratified re-run of the edited program for the same seed —
//!    the per-function streams make an edit to one function unable
//!    to perturb another function's draws.
//!
//! # Soundness
//!
//! The caller-side lift inherits the same interprocedural convention
//! as the coverage analysis's liveness (callers do not rely on
//! registers across calls beyond the modelled argument/return/
//! callee-saved sets); `tests/compose_crossval.rs` validates both
//! layers dynamically against monolithic campaigns across the whole
//! workload catalog.

use std::collections::BTreeMap;

use ferrum_asm::analysis::cfg::Cfg;
use ferrum_asm::analysis::coverage::{CoverageMap, StaticVerdict};
use ferrum_asm::analysis::liveness::{ByteSet, Liveness};
use ferrum_asm::analysis::summary::{function_hash, SummaryMap};
use ferrum_asm::{AsmProgram, Inst, EXIT_FUNCTION, PRINT_I64};
use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::run::Profile;
use ferrum_rng::Rng64;

use crate::campaign::{CampaignConfig, CampaignResult, Outcome};

/// The program's entry function: its final register state is
/// architecturally unobservable (the harness compares only the output
/// stream), so register-only escapes out of it are always dead.
const ENTRY: &str = "main";

/// Byte liveness after each call site of every function, keyed by
/// callee name.  The entry function gets no implicit context: its
/// final register state is unobservable.
fn call_site_contexts(p: &AsmProgram) -> BTreeMap<&str, Vec<ByteSet>> {
    let mut ctx: BTreeMap<&str, Vec<ByteSet>> = BTreeMap::new();
    for f in &p.functions {
        let cfg = Cfg::build(f);
        let lv = Liveness::compute(f, &cfg);
        for (bi, b) in f.blocks.iter().enumerate() {
            let mut after: Option<Vec<ByteSet>> = None;
            for (i, ai) in b.insts.iter().enumerate() {
                let Inst::Call { target } = &ai.inst else {
                    continue;
                };
                if target == EXIT_FUNCTION || target == PRINT_I64 {
                    continue;
                }
                let after = after.get_or_insert_with(|| lv.live_after_each(f, bi));
                ctx.entry(target.as_str()).or_default().push(after[i]);
            }
        }
    }
    ctx
}

/// Composes per-function summaries into whole-program verdicts.
///
/// `coverage` and `summary` must both describe `p`.  For every unit:
///
/// * sound and advisory verdicts (`Masked`, `Detected`, `Vulnerable`)
///   are adopted verbatim;
/// * an `Unknown` unit with an **empty escape footprint** and no
///   detecting path is lifted to `Masked`: every path inside the
///   function converges back to the golden state;
/// * an `Unknown` unit with a **register-only** footprint and no
///   detecting path is lifted to `Masked` when the escaping bytes are
///   dead at *every* call site of the function (and implicitly at the
///   entry function's final return, which nothing observes);
/// * everything else stays `Unknown`.
///
/// Returns the composed map — `coverage` with every lifted unit set to
/// `Masked` and the rollups recounted, so the lifted units number
/// `composed.masked - local.masked` — and the number of call sites of
/// each function, in program order.
pub fn compose(
    p: &AsmProgram,
    coverage: &CoverageMap,
    summary: &SummaryMap,
) -> (CoverageMap, Vec<usize>) {
    let contexts = call_site_contexts(p);
    let mut composed = coverage.clone();
    let mut call_sites = Vec::with_capacity(composed.functions.len());
    for f in &mut composed.functions {
        let callers = contexts.get(f.name.as_str()).map_or(&[][..], Vec::as_slice);
        // A register escape out of the entry function is unobservable;
        // out of any other function it must be dead in every caller.
        // (An uncalled non-entry function never executes, so the lift
        // is vacuous there.)
        let entry = f.name == ENTRY;
        let dead_everywhere = |gpr: ByteSet| {
            (!entry || callers.is_empty()) && callers.iter().all(|&la| la & gpr == 0)
        };
        for s in &mut f.sites {
            let mut unknown = s.units_with(StaticVerdict::Unknown);
            while unknown != 0 {
                let k = unknown.trailing_zeros() as usize;
                unknown &= unknown - 1;
                let u = summary.unit(s.pc, k, StaticVerdict::Unknown);
                if !u.may_detect
                    && (u.escape.is_empty()
                        || (u.escape.register_only() && dead_everywhere(u.escape.gpr)))
                {
                    s.set_verdict(k, StaticVerdict::Masked);
                    f.rollup.unknown -= 1;
                    f.rollup.masked += 1;
                }
            }
        }
        call_sites.push(callers.len());
    }
    (composed, call_sites)
}

// ---------------------------------------------------------------------------
// Incremental campaigns
// ---------------------------------------------------------------------------

/// One cached draw of a function's campaign shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDraw {
    /// Index into the function's own dynamic-site list (sites owned by
    /// the function, in dynamic order).
    pub local_site: u32,
    /// Raw bit drawn below the site's width.
    pub raw_bit: u16,
    /// Classified outcome of the injection.
    pub outcome: Outcome,
}

/// The cached campaign shard of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionShard {
    /// Function name (the shard key).
    pub name: String,
    /// Content hash of the function at injection time
    /// ([`function_hash`]).
    pub hash: u64,
    /// Dynamic sites owned by the function at injection time.  An
    /// edit elsewhere that changes this function's dynamic behaviour
    /// (e.g. a changed loop bound in a caller) invalidates the shard
    /// even though the hash still matches.
    pub sites: usize,
    /// The function's sampled faults and their outcomes, in draw
    /// order.
    pub draws: Vec<ShardDraw>,
}

/// Cached per-function campaign shards, the reuse substrate of
/// [`crate::plan::Reuse::Cache`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignCache {
    /// Seed the shards were drawn with.
    pub seed: u64,
    /// Global sample budget the quotas were derived from.
    pub samples: usize,
    /// Per-function shards, in program order.
    pub shards: Vec<FunctionShard>,
}

/// FNV-1a over a function name: the per-function RNG stream key.
/// Deliberately *not* the content hash — an edit must invalidate the
/// shard, not shift the function's draw sequence.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The dynamic sites of `profile` partitioned per function of `p`, in
/// program order: `(name, content hash, indices into profile.sites)`
/// per function.  Sites are attributed through the flat-pc ranges of
/// the loaded image (same function order as the program).
fn partition_sites(p: &AsmProgram, profile: &Profile) -> Vec<(String, u64, Vec<usize>)> {
    // Flat pc ranges, mirroring the image load order.
    let mut ranges = Vec::with_capacity(p.functions.len());
    let mut pc = 0usize;
    for f in &p.functions {
        let start = pc;
        pc += f.blocks.iter().map(|b| b.insts.len()).sum::<usize>();
        ranges.push((f.name.clone(), function_hash(f), start, pc));
    }
    let mut functions: Vec<(String, u64, Vec<usize>)> = ranges
        .iter()
        .map(|(n, h, _, _)| (n.clone(), *h, Vec::new()))
        .collect();
    for (i, s) in profile.sites.iter().enumerate() {
        // Ranges are sorted by start; find the owning function.
        let fi = ranges.partition_point(|&(_, _, start, _)| start <= s.pc) - 1;
        debug_assert!(s.pc < ranges[fi].3);
        functions[fi].2.push(i);
    }
    functions
}

/// Per-function sample quota: proportional to the function's share of
/// dynamic sites, at least 1 for any function with sites.  The total
/// therefore tracks (but may slightly exceed) `samples`.
fn quota(samples: usize, function_sites: usize, total_sites: usize) -> usize {
    if function_sites == 0 || samples == 0 {
        return 0;
    }
    (samples * function_sites / total_sites).max(1)
}

/// Draws a function's fault list with its own seeded RNG stream.
fn draw_shard(seed: u64, n: usize, site_indices: &[usize], profile: &Profile) -> Vec<(usize, u16)> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..site_indices.len());
            let site = profile.sites[site_indices[k]];
            (k, rng.gen_below(u64::from(site.bits)) as u16)
        })
        .collect()
}

/// Draws a stratified campaign's fault list: per function of
/// `program`, in program order, its quota of faults from its own RNG
/// stream — or, when `cache` holds a shard for the function with the
/// same content hash, dynamic-site count, and draw count, that shard's
/// faults re-addressed to the (possibly shifted) new dynamic indices
/// together with their cached outcomes.  A cache drawn with a
/// different seed or sample budget is ignored.  Returns the faults,
/// the cached outcome of each (if any), and one `(name, hash, sites,
/// draws, reused)` row per function for the flight recorder.
#[allow(clippy::type_complexity)]
pub(crate) fn stratified_faults(
    program: &AsmProgram,
    profile: &Profile,
    cfg: CampaignConfig,
    cache: Option<&CampaignCache>,
) -> (
    Vec<FaultSpec>,
    Vec<Option<Outcome>>,
    Vec<(String, u64, usize, usize, bool)>,
) {
    let (mut faults, mut cached_outcomes, mut shards) = (Vec::new(), Vec::new(), Vec::new());
    if cfg.samples == 0 {
        return (faults, cached_outcomes, shards);
    }
    let cache = cache.filter(|c| c.seed == cfg.seed && c.samples == cfg.samples);
    let total_sites = profile.sites.len();
    for (name, hash, site_indices) in partition_sites(program, profile) {
        let n = quota(cfg.samples, site_indices.len(), total_sites);
        let cached = cache.and_then(|c| {
            c.shards.iter().find(|s| {
                s.name == name
                    && s.hash == hash
                    && s.sites == site_indices.len()
                    && s.draws.len() == n
                    && s.draws.iter().all(|d| (d.local_site as usize) < s.sites)
            })
        });
        let draws: Vec<(usize, u16, Option<Outcome>)> = match cached {
            Some(shard) => shard
                .draws
                .iter()
                .map(|d| (d.local_site as usize, d.raw_bit, Some(d.outcome)))
                .collect(),
            None => draw_shard(cfg.seed ^ name_seed(&name), n, &site_indices, profile)
                .into_iter()
                .map(|(k, raw_bit)| (k, raw_bit, None))
                .collect(),
        };
        for (k, raw_bit, outcome) in draws {
            faults.push(FaultSpec::new(
                profile.sites[site_indices[k]].dyn_index,
                raw_bit,
            ));
            cached_outcomes.push(outcome);
        }
        shards.push((name, hash, site_indices.len(), n, cached.is_some()));
    }
    (faults, cached_outcomes, shards)
}

impl CampaignCache {
    /// Rebuilds the shard cache of a finished stratified campaign —
    /// `result` from [`Campaign::stratified`]`(cfg, program)` over
    /// `profile` — from its records and the per-function site
    /// partition: the records come in program order, `quota` per
    /// function.  A later stratified plan with this cache as
    /// [`Reuse::Cache`] replays every unchanged function's shard.
    ///
    /// [`Campaign::stratified`]: crate::plan::Campaign::stratified
    /// [`Reuse::Cache`]: crate::plan::Reuse::Cache
    pub fn from_result(
        program: &AsmProgram,
        profile: &Profile,
        cfg: CampaignConfig,
        result: &CampaignResult,
    ) -> CampaignCache {
        let mut cache = CampaignCache {
            seed: cfg.seed,
            samples: cfg.samples,
            shards: Vec::new(),
        };
        if cfg.samples == 0 {
            return cache;
        }
        let total_sites = profile.sites.len();
        let mut records = result.records.iter();
        for (name, hash, site_indices) in partition_sites(program, profile) {
            let n = quota(cfg.samples, site_indices.len(), total_sites);
            // A record that is not one of this function's sites means
            // `result` came from another plan; dropping it leaves the
            // shard short, so it never matches on reuse.
            let draws = records
                .by_ref()
                .take(n)
                .filter_map(|&(fault, outcome)| {
                    let local = site_indices
                        .binary_search_by_key(&fault.dyn_index, |&i| profile.sites[i].dyn_index)
                        .ok()?;
                    Some(ShardDraw {
                        local_site: local as u32,
                        raw_bit: fault.raw_bit,
                        outcome,
                    })
                })
                .collect();
            cache.shards.push(FunctionShard {
                name,
                hash,
                sites: site_indices.len(),
                draws,
            });
        }
        cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::plan::{static_outcome, Campaign, Reuse};
    use ferrum_cpu::run::Cpu;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::{Global, Module};
    use ferrum_mir::types::Ty;
    use ferrum_mir::value::Value;

    /// main() calls helper(i) over a table and prints the sum; helper
    /// doubles its argument.  `scratch`'s return value is discarded by
    /// main, so a fault escaping `scratch` through %rax is dead in its
    /// only caller — the canonical caller-side-liftable escape.
    fn workload_module() -> Module {
        let mut module = Module::new();
        let g = module.add_global(Global::new("tab", vec![3, 1, 4, 1]));
        let mut h = FunctionBuilder::new("helper", &[Ty::I64], Some(Ty::I64));
        let two = Value::const_int(Ty::I64, 2);
        let d = h.mul(Ty::I64, Value::Arg(0), two);
        h.ret(Some(d));
        module.functions.push(h.finish());
        let mut s = FunctionBuilder::new("scratch", &[Ty::I64], Some(Ty::I64));
        let three = Value::const_int(Ty::I64, 3);
        let t = s.mul(Ty::I64, Value::Arg(0), three);
        s.ret(Some(t));
        module.functions.push(s.finish());
        let mut b = FunctionBuilder::new("main", &[], None);
        let base = b.global(g);
        let mut acc = b.iconst(Ty::I64, 0);
        for i in 0..4 {
            let idx = b.iconst(Ty::I64, i);
            let p = b.gep(base, idx);
            let v = b.load(Ty::I64, p);
            let d = b.call("helper", vec![v], Some(Ty::I64)).unwrap();
            acc = b.add(Ty::I64, acc, d);
        }
        // Void-style call: the result in %rax is never spilled, so the
        // escape out of `scratch` is dead at this (only) call site.
        b.call("scratch", vec![acc], None);
        b.print(acc);
        b.ret(None);
        module.functions.push(b.finish());
        module
    }

    fn compiled() -> (AsmProgram, Cpu) {
        let asm = ferrum_backend::compile(&workload_module()).unwrap();
        let cpu = Cpu::load(&asm).unwrap();
        (asm, cpu)
    }

    fn protected() -> (AsmProgram, Cpu) {
        let asm = ferrum_eddi::ferrum::Ferrum::new()
            .protect_module(&workload_module())
            .unwrap();
        let cpu = Cpu::load(&asm).unwrap();
        (asm, cpu)
    }

    fn cfg(samples: usize, seed: u64) -> CampaignConfig {
        CampaignConfig { samples, seed }
    }

    /// A stratified plan's result and the cache rebuilt from it,
    /// reusing `cache` when given.
    fn stratified(
        cpu: &Cpu,
        profile: &Profile,
        cfg: CampaignConfig,
        asm: &AsmProgram,
        cache: Option<&CampaignCache>,
    ) -> (CampaignResult, CampaignCache) {
        let result = Campaign::stratified(cfg, asm)
            .reuse(cache.map_or(Reuse::None, Reuse::Cache))
            .run(Engine::Interpreter(cpu), profile)
            .unwrap();
        let rebuilt = CampaignCache::from_result(asm, profile, cfg, &result);
        (result, rebuilt)
    }

    /// The local coverage map of `asm`, its composition and the
    /// call-site counts.
    fn composition(asm: &AsmProgram) -> (CoverageMap, CoverageMap, Vec<usize>) {
        let coverage = CoverageMap::analyze(asm);
        let (composed, call_sites) = compose(asm, &coverage, &SummaryMap::build(asm, &coverage));
        (coverage, composed, call_sites)
    }

    #[test]
    fn composed_map_never_weakens_local_verdicts() {
        let (asm, _) = protected();
        let (coverage, composed, _) = composition(&asm);
        for (cf, lf) in composed.functions.iter().zip(&coverage.functions) {
            for (cs, ls) in cf.sites.iter().zip(&lf.sites) {
                for (cv, lv) in cs.verdicts().zip(ls.verdicts()) {
                    if lv != StaticVerdict::Unknown {
                        assert_eq!(cv, lv, "composition must adopt decided verdicts");
                    } else {
                        assert!(
                            cv == StaticVerdict::Unknown || cv == StaticVerdict::Masked,
                            "Unknown may only lift to Masked, got {cv:?}"
                        );
                    }
                }
            }
            // The recounted rollup is the count of the composed verdicts.
            let mut counted = ferrum_asm::analysis::VerdictCounts::default();
            cf.sites
                .iter()
                .flat_map(|s| s.verdicts())
                .for_each(|v| counted.add(v));
            assert_eq!(cf.rollup, counted);
        }
        assert_eq!(coverage.rollup().total(), composed.rollup().total());
    }

    #[test]
    fn composition_lifts_register_escapes_dead_at_callers() {
        // Both helpers leave their result in %rax across a block
        // boundary, so the local analysis says Unknown (its scan stops
        // at the boundary) and the summary records a register-only
        // %rax escape.  `discarded`'s %rax is clobbered by the next
        // call before anything reads it -> lift to Masked; `used`'s
        // %rax feeds the print -> stays Unknown.  main's own %rax
        // escape at its final ret has no caller to observe it -> lift.
        let text = "\
.globl discarded
discarded:
    movq %rdi, %rax
    jmp discarded_end
discarded_end:
    ret
.globl used
used:
    movq %rdi, %rax
    jmp used_end
used_end:
    ret
.globl main
main:
    movq $5, %rdi
    call discarded
    movq $6, %rdi
    call used
    movq %rax, %rdi
    call print_i64
    movq $7, %rax
    jmp main_end
main_end:
    ret
";
        let asm = ferrum_asm::parser::parse_program(text).unwrap();
        let (local, composed, call_sites) = composition(&asm);
        let by_name = |n: &str| {
            let fi = asm.functions.iter().position(|f| f.name == n).unwrap();
            let (l, c) = (local.functions[fi].rollup, composed.functions[fi].rollup);
            (l, c, c.masked - l.masked, call_sites[fi])
        };

        let (l, c, lifted, callers) = by_name("discarded");
        assert_eq!(l.unknown, 8, "locally undecidable");
        assert_eq!(lifted, 8, "dead-at-caller escape lifts");
        assert_eq!(c.unknown, 0);
        assert_eq!(callers, 1);

        let (l, c, lifted, _) = by_name("used");
        assert_eq!(l.unknown, 8);
        assert_eq!(lifted, 0, "escape read by the caller must not lift");
        assert_eq!(c.unknown, 8);

        let (_, _, lifted, callers) = by_name("main");
        assert_eq!(lifted, 8, "entry-function register escape lifts");
        assert_eq!(callers, 0);
        assert_eq!(composed.rollup().masked, local.rollup().masked + 16);
    }

    #[test]
    fn composition_lifts_empty_footprint_without_callers() {
        // A tainted SIMD register overwritten in the next block:
        // coverage has no SIMD liveness so it stays Unknown, the
        // summary proves the empty footprint, and the lift needs no
        // caller context at all.
        use ferrum_asm::program::{AsmBlock, AsmFunction, AsmInst};
        use ferrum_asm::reg::{Gpr, Reg, Xmm};
        use ferrum_asm::Operand;
        let mut b0 = AsmBlock::new("entry");
        b0.insts.push(AsmInst::synthetic(Inst::MovqToXmm {
            src: Operand::Reg(Reg::q(Gpr::Rcx)),
            dst: Xmm::new(0),
        }));
        let mut b1 = AsmBlock::new("tail");
        b1.insts.push(AsmInst::synthetic(Inst::MovqToXmm {
            src: Operand::Reg(Reg::q(Gpr::Rdx)),
            dst: Xmm::new(0),
        }));
        b1.insts.push(AsmInst::synthetic(Inst::Ret));
        let mut f = AsmFunction::new("main");
        f.blocks.push(b0);
        f.blocks.push(b1);
        let mut p = AsmProgram::new();
        p.functions.push(f);
        let (local, composed, _) = composition(&p);
        let site = composed.site(0).expect("xmm site");
        assert!(
            composed.rollup().masked >= local.rollup().masked + 16,
            "all 16 lane bytes lift"
        );
        assert!(site.verdicts().all(|v| v == StaticVerdict::Masked));
    }

    #[test]
    fn helper_is_called_and_contexts_found() {
        let (asm, _) = compiled();
        let ctx = call_site_contexts(&asm);
        let helper = ctx.get("helper").expect("helper has call sites");
        assert_eq!(helper.len(), 4, "four call sites in main");
    }

    #[test]
    fn stratified_campaign_is_reproducible_and_covers_both_functions() {
        let (asm, cpu) = compiled();
        let profile = cpu.profile();
        let (a, cache_a) = stratified(&cpu, &profile, cfg(200, 11), &asm, None);
        let (b, cache_b) = stratified(&cpu, &profile, cfg(200, 11), &asm, None);
        assert_eq!(a, b);
        assert_eq!(cache_a, cache_b);
        // Quota floors undershoot by at most one sample per function.
        let slack = cache_a.shards.len();
        assert!(a.total() + slack >= 200 && a.total() <= 200 + slack);
        // Every function with sites drew samples.
        assert!(cache_a
            .shards
            .iter()
            .all(|s| s.sites == 0 || !s.draws.is_empty()));
        assert_eq!(cache_a.shards.len(), 3);
        assert!(a.sdc > 0, "unprotected program shows SDCs");
    }

    #[test]
    fn incremental_with_unchanged_program_reuses_everything() {
        let (asm, cpu) = compiled();
        let profile = cpu.profile();
        let (full, cache) = stratified(&cpu, &profile, cfg(150, 3), &asm, None);
        let (inc, cache2) = stratified(&cpu, &profile, cfg(150, 3), &asm, Some(&cache));
        assert_eq!(full, inc, "replayed result must be record-identical");
        assert_eq!(cache, cache2);
        assert_eq!(inc.stats.reused_sites, inc.total());
        assert!((inc.stats.reuse_rate() - 1.0).abs() < 1e-12);
        assert_eq!(inc.stats.steps_executed, 0, "nothing executed");
    }

    #[test]
    fn incremental_after_single_function_edit_reinjects_only_that_function() {
        let (asm, cpu) = compiled();
        let profile = cpu.profile();
        let (_, cache) = stratified(&cpu, &profile, cfg(150, 9), &asm, None);

        // Edit `helper` only: append a no-op-equivalent instruction
        // (a `nop` has no injectable destination and no architectural
        // effect, so `main`'s dynamic behaviour and site census are
        // unchanged while helper's hash changes).
        let mut edited = asm.clone();
        let hi = edited
            .functions
            .iter()
            .position(|f| f.name == "helper")
            .unwrap();
        edited.functions[hi].blocks[0]
            .insts
            .insert(0, ferrum_asm::AsmInst::synthetic(Inst::Nop));
        let cpu2 = Cpu::load(&edited).unwrap();
        let profile2 = cpu2.profile();

        let (full, _) = stratified(&cpu2, &profile2, cfg(150, 9), &edited, None);
        let (inc, cache2) = stratified(&cpu2, &profile2, cfg(150, 9), &edited, Some(&cache));
        assert_eq!(full, inc, "incremental ≡ full stratified re-run");

        // Only helper re-injected; every other shard replayed.
        let replayed: usize = cache
            .shards
            .iter()
            .filter(|s| s.name != "helper")
            .map(|s| s.draws.len())
            .sum();
        assert_eq!(inc.stats.reused_sites, replayed);
        assert!(inc.stats.reused_sites > 0);
        assert!(inc.stats.reuse_rate() > 0.0 && inc.stats.reuse_rate() < 1.0);
        let helper_shard = cache2.shards.iter().find(|s| s.name == "helper").unwrap();
        assert_ne!(
            helper_shard.hash,
            cache
                .shards
                .iter()
                .find(|s| s.name == "helper")
                .unwrap()
                .hash
        );
    }

    #[test]
    fn cache_with_wrong_seed_is_ignored() {
        let (asm, cpu) = compiled();
        let profile = cpu.profile();
        let (_, cache) = stratified(&cpu, &profile, cfg(100, 1), &asm, None);
        let (inc, _) = stratified(&cpu, &profile, cfg(100, 2), &asm, Some(&cache));
        assert_eq!(inc.stats.reused_sites, 0, "seed mismatch voids the cache");
        let (full, _) = stratified(&cpu, &profile, cfg(100, 2), &asm, None);
        assert_eq!(full, inc);
    }

    #[test]
    fn a_cache_rebuilt_from_another_plan_is_never_reused() {
        // Records of a sampled plan are not per-function draws: the
        // rebuilt shards come out short or mismatched, so a stratified
        // plan re-injects everything rather than replay wrong outcomes.
        let (asm, cpu) = compiled();
        let profile = cpu.profile();
        let sampled = Campaign::sampled(cfg(150, 3))
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        let foreign = CampaignCache::from_result(&asm, &profile, cfg(150, 3), &sampled);
        let (cold, _) = stratified(&cpu, &profile, cfg(150, 3), &asm, None);
        let (warm, _) = stratified(&cpu, &profile, cfg(150, 3), &asm, Some(&foreign));
        assert_eq!(warm, cold);
        assert!(warm.stats.reused_sites < warm.total());
    }

    #[test]
    fn composed_verdicts_sound_against_exhaustive_outcomes() {
        // Dynamic cross-check on the protected two-function program:
        // every sampled fault outcome must agree with the composed
        // verdict (Masked → Benign, Detected → Detected).
        let (asm, cpu) = protected();
        let profile = cpu.profile();
        let (_, composed, _) = composition(&asm);
        let res = Campaign::sampled(cfg(400, 77))
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        for &(fault, outcome) in &res.records {
            if let Some(expected) = static_outcome(&composed, &profile, fault) {
                assert_eq!(
                    outcome, expected,
                    "composed verdict contradicted at {fault:?}"
                );
            }
        }
    }
}
