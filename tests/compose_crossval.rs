//! Cross-validation of compositional fault-propagation verdicts and
//! incremental campaign plans against injection ground truth —
//! the soundness contract of `ferrum-compose` (DESIGN.md §5g).
//!
//! Three halves, mirroring the acceptance criteria:
//!
//! 1. **Composed verdicts are never wrong**: across every catalog
//!    workload × {ferrum, requisition, hybrid, ir-eddi}, a monolithic
//!    campaign must agree with every composed `Masked` (→ `Benign`)
//!    and `Detected` (→ `Detected`) claim per seed — composition may
//!    lift `Unknown` to `Masked` only when the lift is sound.
//! 2. **Incremental ≡ full**: after editing one function, an
//!    incremental campaign seeded from the stale cache is
//!    record-identical to a full stratified re-run on the edited
//!    program, and reuses exactly the shards of untouched functions.
//! 3. **Dynamic escape ⊆ static escape** (proptest-gated, off by
//!    default): a fault whose unit summary proves an empty escape
//!    footprint with no detection path can only ever be `Benign`.

use ferrum::{
    compose, Campaign, CampaignCache, CampaignResult, ComposedMap, CoverageMap, Pipeline, Reuse,
    StaticVerdict, SummaryMap, Technique,
};
use ferrum_asm::inst::Inst;
use ferrum_asm::program::{AsmInst, AsmProgram};
use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::outcome::StopReason;
use ferrum_cpu::run::{Cpu, Profile};
use ferrum_eddi::ferrum::{Ferrum, FerrumConfig};
use ferrum_eddi::hybrid::HybridAsmEddi;
use ferrum_faultsim::campaign::{CampaignConfig, Outcome, SnapshotPolicy};
use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;
use ferrum_mir::value::Value;
use ferrum_workloads::catalog::{all_workloads, Scale};

/// A stratified campaign, reusing `cache` when given, and the shard
/// cache rebuilt from it.
fn stratified(
    cpu: &Cpu,
    profile: &Profile,
    cfg: CampaignConfig,
    asm: &AsmProgram,
    cache: Option<&CampaignCache>,
) -> (CampaignResult, CampaignCache) {
    let result = Campaign::stratified(cfg, asm)
        .reuse(cache.map_or(Reuse::None, Reuse::Cache))
        .run(cpu, profile)
        .unwrap();
    let cache = CampaignCache::from_result(asm, profile, cfg, &result);
    (result, cache)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// All four protection configurations under test.
fn protect_all(m: &Module) -> Vec<(&'static str, AsmProgram)> {
    let requisition = {
        let asm = ferrum_backend::compile(m).expect("compiles");
        let cfg = FerrumConfig {
            force_requisition: true,
            ..FerrumConfig::default()
        };
        Ferrum::with_config(cfg).protect(&asm).expect("protects")
    };
    vec![
        (
            "ferrum",
            Ferrum::new().protect_module(m).expect("ferrum protects"),
        ),
        ("requisition", requisition),
        (
            "hybrid",
            HybridAsmEddi::new().protect(m).expect("hybrid protects"),
        ),
        (
            "ir-eddi",
            Pipeline::new()
                .protect(m, Technique::IrEddi)
                .expect("ir-eddi protects"),
        ),
    ]
}

/// The composed verdict governing one sampled fault, via the profile's
/// dyn-index → pc mapping.
fn verdict_of(profile: &Profile, map: &ComposedMap, fault: FaultSpec) -> Option<StaticVerdict> {
    let i = profile
        .sites
        .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
        .expect("sampled fault must come from a profiled site");
    map.verdict_at(profile.sites[i].pc, fault.raw_bit)
}

/// Injects `samples` faults into `asm` and asserts every record agrees
/// with the composed map's decided verdicts.
fn assert_composed_sound(what: &str, asm: &AsmProgram, samples: usize) {
    let coverage = CoverageMap::analyze(asm);
    let summary = SummaryMap::build(asm, &coverage);
    let composed = compose(asm, &coverage, &summary);
    let cpu = Cpu::load(asm).expect("loads");
    let profile = cpu.profile();
    assert_eq!(
        profile.result.stop,
        StopReason::MainReturned,
        "{what}: golden run must complete"
    );
    let cfg = CampaignConfig {
        samples,
        seed: 0xC0DE,
    };
    let res = Campaign::sampled(cfg)
        .threads(threads())
        .snapshots(SnapshotPolicy::default())
        .run(&cpu, &profile)
        .unwrap();
    for &(fault, outcome) in &res.records {
        match verdict_of(&profile, &composed, fault) {
            Some(StaticVerdict::Masked) => assert_eq!(
                outcome,
                Outcome::Benign,
                "{what}: composed-Masked site {fault:?} produced {outcome:?}"
            ),
            Some(StaticVerdict::Detected) => assert_eq!(
                outcome,
                Outcome::Detected,
                "{what}: composed-Detected site {fault:?} produced {outcome:?}"
            ),
            _ => {}
        }
    }
    // Composition is monotone: it may only decide more than the local
    // map, never less.
    let (local, whole) = (composed.local_rollup(), composed.composed_rollup());
    assert!(
        whole.unknown <= local.unknown,
        "{what}: composition increased unknowns ({} -> {})",
        local.unknown,
        whole.unknown
    );
    assert_eq!(
        whole.masked,
        local.masked + composed.lifted(),
        "{what}: every lift must land in Masked"
    );
}

#[test]
fn composed_verdicts_match_injection_on_every_workload_and_config() {
    for w in all_workloads() {
        let m = w.build(Scale::Test);
        for (cfg_name, asm) in protect_all(&m) {
            assert_composed_sound(&format!("{}/{}", cfg_name, w.name), &asm, 600);
        }
    }
}

/// main() sums helper(i) over a table; `scratch`'s return value is
/// discarded, making its %rax escape dead at the only call site.
/// Three functions give the incremental executor real shards to reuse.
fn multi_function_module() -> Module {
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
    b.call("scratch", vec![acc], None);
    b.print(acc);
    b.ret(None);
    module.functions.push(b.finish());
    module
}

/// Inserts a synthetic `nop` at the head of `name`, changing its
/// content hash without touching its injectable sites.
fn edit_function(asm: &mut AsmProgram, name: &str) {
    let f = asm
        .functions
        .iter_mut()
        .find(|f| f.name == name)
        .expect("function exists");
    f.blocks[0].insts.insert(0, AsmInst::synthetic(Inst::Nop));
}

#[test]
fn incremental_after_edit_matches_full_rerun_and_reuses_the_rest() {
    let module = multi_function_module();
    for (cfg_name, asm) in protect_all(&module) {
        let cpu = Cpu::load(&asm).expect("loads");
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 300,
            seed: 0xBEEF,
        };
        let (_, cache) = stratified(&cpu, &profile, cfg, &asm, None);

        let mut edited = asm.clone();
        edit_function(&mut edited, "helper");
        let cpu2 = Cpu::load(&edited).expect("edited program loads");
        let profile2 = cpu2.profile();
        let (full, _) = stratified(&cpu2, &profile2, cfg, &edited, None);
        let (inc, _) = stratified(&cpu2, &profile2, cfg, &edited, Some(&cache));

        assert_eq!(
            full, inc,
            "{cfg_name}: incremental after editing `helper` diverged from a full re-run"
        );
        let untouched: usize = cache
            .shards
            .iter()
            .filter(|s| s.name != "helper")
            .map(|s| s.draws.len())
            .sum();
        assert_eq!(
            inc.stats.reused_sites, untouched,
            "{cfg_name}: incremental must reuse exactly the untouched functions' shards"
        );
        assert!(
            inc.stats.reused_sites > 0,
            "{cfg_name}: reuse must be non-trivial on a multi-function program"
        );
    }
}

/// On single-function catalog binaries an edit invalidates everything:
/// reuse drops to zero and the incremental run must still reproduce
/// the full campaign exactly.
#[test]
fn incremental_catalog_edit_is_identical_with_zero_reuse()  {
    let w = ferrum_workloads::workload("bfs").expect("exists");
    let m = w.build(Scale::Test);
    let asm = Ferrum::new().protect_module(&m).expect("protects");
    let cpu = Cpu::load(&asm).expect("loads");
    let profile = cpu.profile();
    let cfg = CampaignConfig {
        samples: 300,
        seed: 0xFE44,
    };
    let (_, cache) = stratified(&cpu, &profile, cfg, &asm, None);

    let mut edited = asm.clone();
    edit_function(&mut edited, "main");
    let cpu2 = Cpu::load(&edited).expect("edited program loads");
    let profile2 = cpu2.profile();
    let (full, _) = stratified(&cpu2, &profile2, cfg, &edited, None);
    let (inc, _) = stratified(&cpu2, &profile2, cfg, &edited, Some(&cache));
    assert_eq!(full, inc, "bfs: incremental diverged after editing main");
    assert_eq!(inc.stats.reused_sites, 0, "bfs is single-function: no shard survives");
}

#[test]
fn incremental_with_unchanged_catalog_program_reuses_everything() {
    for w in all_workloads() {
        let m = w.build(Scale::Test);
        let asm = Ferrum::new().protect_module(&m).expect("protects");
        let cpu = Cpu::load(&asm).expect("loads");
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 200,
            seed: 0xFE44,
        };
        let (full, cache) = stratified(&cpu, &profile, cfg, &asm, None);
        let (inc, _) = stratified(&cpu, &profile, cfg, &asm, Some(&cache));
        assert_eq!(full, inc, "{}: cached replay diverged", w.name);
        assert_eq!(
            inc.stats.reused_sites,
            inc.total(),
            "{}: unchanged program must replay entirely from cache",
            w.name
        );
        assert!(
            (inc.stats.reuse_rate() - 1.0).abs() < 1e-9,
            "{}: reuse rate must be 100%",
            w.name
        );
    }
}

// ---------------------------------------------------------------------
// Property: dynamic escape ⊆ static escape.  Compiled only with
// `--features proptest` after manually restoring the external
// `proptest` dev-dependency (hermetic-build policy).
// ---------------------------------------------------------------------
#[cfg(feature = "proptest")]
mod escape_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A unit whose summary proves an empty escape footprint and no
        /// detection path can only ever produce a benign outcome: the
        /// dynamic escape set of any fault is contained in the static
        /// footprint, and an empty footprint leaves nothing to escape.
        #[test]
        fn empty_static_footprint_implies_benign(seed in 0u64..64) {
            let module = multi_function_module();
            for (_, asm) in protect_all(&module) {
                let summary = SummaryMap::analyze(&asm);
                let cpu = Cpu::load(&asm).expect("loads");
                let profile = cpu.profile();
                let cfg = CampaignConfig { samples: 64, seed };
                let res = Campaign::sampled(cfg).run(&cpu, &profile).unwrap();
                for &(fault, outcome) in &res.records {
                    let i = profile
                        .sites
                        .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
                        .expect("profiled site");
                    let Some(unit) = summary.unit_at(profile.sites[i].pc, fault.raw_bit) else {
                        continue;
                    };
                    if unit.escape.is_empty() && !unit.may_detect {
                        prop_assert_eq!(
                            outcome,
                            Outcome::Benign,
                            "empty footprint at {:?} produced {:?}",
                            fault,
                            outcome
                        );
                    }
                }
            }
        }
    }
}
