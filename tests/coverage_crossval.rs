//! Cross-validation of the static coverage map against injection
//! ground truth — the soundness contract of `ferrum coverage`.
//!
//! Three halves, mirroring the acceptance criteria (DESIGN.md §5d):
//!
//! 1. **Sound verdicts are never wrong**: across every catalog
//!    workload × {ferrum, ferrum-zmm, requisition, hybrid, ir-eddi},
//!    injection must agree with every `Masked` (→ `Benign`) and
//!    `Detected` (→ `Detected`) claim — in particular, no SDC may ever
//!    land on a statically-decided site.
//! 2. **Pruning changes nothing**: a plan pruned by the map is
//!    outcome-identical to the serial engine per seed, fault for
//!    fault.
//! 3. **Pruning is worth it**: on FERRUM-protected catalog binaries
//!    the reported prune rate clears 20%.
//!
//! A fourth test pins the analyses themselves: a digest of every
//! verdict and every escape footprint over a window of fuzz programs.

use ferrum::{OptLevel, Pipeline, Technique};
use ferrum_asm::analysis::coverage::{CoverageMap, StaticVerdict};
use ferrum_asm::analysis::summary::{function_hash, SummaryMap};
use ferrum_asm::program::AsmProgram;
use ferrum_cpu::exec::StepEvent;
use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::machine::RegFile;
use ferrum_cpu::outcome::StopReason;
use ferrum_cpu::run::Cpu;
use ferrum_cpu::Machine;
use ferrum_eddi::ferrum::{Ferrum, FerrumConfig};
use ferrum_eddi::hybrid::HybridAsmEddi;
use ferrum_faultsim::campaign::{CampaignConfig, Outcome};
use ferrum_faultsim::{static_outcome, Campaign, Engine};
use ferrum_mir::module::Module;
use ferrum_workloads::catalog::{all_workloads, Scale};

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// All five protection configurations under test: FERRUM with XMM/YMM
/// batches, with ZMM batches and with forced requisition, hybrid, and
/// IR-EDDI.
fn protect_all(m: &Module) -> Vec<(&'static str, AsmProgram)> {
    let asm = ferrum_backend::compile(m).expect("compiles");
    let with = |cfg| Ferrum::with_config(cfg).protect(&asm).expect("protects");
    vec![
        (
            "ferrum",
            Ferrum::new().protect_module(m).expect("ferrum protects"),
        ),
        (
            "ferrum-zmm",
            with(FerrumConfig {
                zmm: true,
                ..FerrumConfig::default()
            }),
        ),
        (
            "requisition",
            with(FerrumConfig {
                force_requisition: true,
                ..FerrumConfig::default()
            }),
        ),
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

/// Injects `samples` faults into `asm` and asserts every record agrees
/// with the map's sound verdicts.  `expect_decided` additionally
/// requires that some sampled fault actually hit a decided site (true
/// for the asm-level techniques, whose checker idioms the analysis
/// recognises; ir-eddi's lowered checks are opaque to it and may
/// yield no decided sites at all).
fn assert_sound(what: &str, asm: &AsmProgram, samples: usize, expect_decided: bool) {
    let map = CoverageMap::analyze(asm);
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
        .run(Engine::Interpreter(&cpu), &profile)
        .unwrap();
    let mut decided = 0usize;
    for &(fault, outcome) in &res.records {
        if let Some(expected) = static_outcome(&map, &profile, fault) {
            decided += 1;
            assert_eq!(
                outcome, expected,
                "{what}: decided site {fault:?} produced {outcome:?}"
            );
        }
    }
    // Sanity: the check must actually exercise sound verdicts on
    // protected binaries, or the test proves nothing.
    assert!(
        !expect_decided || decided > 0,
        "{what}: no sampled fault hit a statically-decided site"
    );
}

#[test]
fn sound_verdicts_match_injection_on_every_workload_and_config() {
    for w in all_workloads() {
        let m = w.build(Scale::Test);
        for (cfg_name, asm) in protect_all(&m) {
            let expect_decided = cfg_name != "ir-eddi";
            assert_sound(
                &format!("{}/{}", cfg_name, w.name),
                &asm,
                800,
                expect_decided,
            );
        }
    }
}

#[test]
fn pruned_engine_is_outcome_identical_across_configs() {
    // Every config on one workload; the FERRUM config on every
    // workload is covered by the prune-rate test below.
    let w = ferrum_workloads::workload("pathfinder").expect("exists");
    let m = w.build(Scale::Test);
    for (cfg_name, asm) in protect_all(&m) {
        let map = CoverageMap::analyze(&asm);
        let cpu = Cpu::load(&asm).expect("loads");
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 400,
            seed: 0xFE44,
        };
        let serial = Campaign::sampled(cfg)
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        let pruned = Campaign::sampled(cfg)
            .prune(&map)
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        assert_eq!(
            serial, pruned,
            "{cfg_name}/pathfinder: pruned engine diverged from serial"
        );
    }
}

#[test]
fn ferrum_prune_rate_clears_twenty_percent_on_all_workloads() {
    for w in all_workloads() {
        let m = w.build(Scale::Test);
        let asm = Ferrum::new().protect_module(&m).expect("protects");
        let map = CoverageMap::analyze(&asm);
        let cpu = Cpu::load(&asm).expect("loads");
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 400,
            seed: 0xFE44,
        };
        let serial = Campaign::sampled(cfg)
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        let pruned = Campaign::sampled(cfg)
            .prune(&map)
            .run(Engine::Interpreter(&cpu), &profile)
            .unwrap();
        assert_eq!(
            serial, pruned,
            "ferrum/{}: pruned engine diverged from serial",
            w.name
        );
        assert!(
            pruned.stats.prune_rate() >= 0.20,
            "ferrum/{}: prune rate {:.1}% below the 20% floor ({} of {} pruned)",
            w.name,
            pruned.stats.prune_rate() * 100.0,
            pruned.stats.pruned_sites,
            pruned.total(),
        );
    }
}

/// The manifest-validated analysis must stay sound too (it can only
/// demote claims, never add them) and keep stock FERRUM output above
/// the prune floor.
#[test]
fn manifest_validated_map_is_sound_and_still_prunes() {
    let w = ferrum_workloads::workload("backprop").expect("exists");
    let m = w.build(Scale::Test);
    let asm = ferrum_backend::compile(&m).expect("compiles");
    let (prot, manifests) = Ferrum::new().protect_with_manifest(&asm).expect("protects");
    let plain = CoverageMap::analyze(&prot);
    let validated = CoverageMap::analyze_with(&prot, Some(&manifests));
    // Validation only demotes Detected → Unknown.
    let (p, v) = (plain.rollup(), validated.rollup());
    assert_eq!(p.masked, v.masked);
    assert!(v.detected <= p.detected);
    assert_eq!(p.total(), v.total());

    let cpu = Cpu::load(&prot).expect("loads");
    let profile = cpu.profile();
    let cfg = CampaignConfig {
        samples: 400,
        seed: 0xBEEF,
    };
    let serial = Campaign::sampled(cfg)
        .run(Engine::Interpreter(&cpu), &profile)
        .unwrap();
    let pruned = Campaign::sampled(cfg)
        .prune(&validated)
        .run(Engine::Interpreter(&cpu), &profile)
        .unwrap();
    assert_eq!(serial, pruned);
    assert!(
        pruned.stats.prune_rate() >= 0.20,
        "manifest-validated prune rate {:.1}% below the 20% floor",
        pruned.stats.prune_rate() * 100.0
    );
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every site of `map` with its verdicts, and every unit of
    /// `summary` with each field of its escape footprint.
    fn units(&mut self, map: &CoverageMap, summary: Option<&SummaryMap>) {
        for fc in &map.functions {
            for site in &fc.sites {
                self.word(site.pc as u64);
                self.word(u64::from(site.bits));
                for (k, v) in site.verdicts().enumerate() {
                    self.word(v as u64);
                    let Some(summary) = summary else { continue };
                    let u = summary.unit(site.pc, k, v);
                    let e = u.escape;
                    self.word(e.gpr as u64);
                    self.word((e.gpr >> 64) as u64);
                    self.word(u64::from(e.simd));
                    let bits = [e.flags, e.mem, e.callee, u.may_detect];
                    self.word(
                        bits.iter()
                            .enumerate()
                            .map(|(i, &b)| u64::from(b) << i)
                            .sum(),
                    );
                }
            }
        }
    }
}

/// First seed and length of the pinned fuzz window.
const WINDOW: (u64, u64) = (42, 8);

/// Every verdict and every unit's summary field on a pinned window of
/// fuzz programs, compiled at `-O0` and `-O1` and protected three ways
/// (FERRUM also with its manifests), digested and compared with the
/// values the analyses produced when the pins were taken.  The fuzz
/// programs vary CFG shape and instruction mix more than the catalog
/// does, so this pins per-unit escape footprints that no rollup sees;
/// the second digest pins `function_hash` over the same programs.
#[test]
fn per_unit_verdicts_and_footprints_match_the_pinned_digest() {
    let (mut units, mut hashes) = (Digest::new(), Digest::new());
    for seed in WINDOW.0..WINDOW.0 + WINDOW.1 {
        let (module, _) = ferrum_fuzz::generate_module(seed);
        for opt in [OptLevel::O0, OptLevel::O1] {
            let pipeline = Pipeline::new().with_opt_level(opt);
            for technique in Technique::PROTECTED {
                let prog = pipeline.protect(&module, technique).expect("protects");
                let map = CoverageMap::analyze(&prog);
                let summary = SummaryMap::build(&prog, &map);
                units.units(&map, Some(&summary));
                for f in &prog.functions {
                    hashes.word(function_hash(f));
                }
            }
            let asm = ferrum_backend::compile_opt(&module, opt).expect("compiles");
            let (prot, manifests) = Ferrum::new().protect_with_manifest(&asm).expect("protects");
            units.units(&CoverageMap::analyze_with(&prot, Some(&manifests)), None);
        }
    }
    assert_eq!(
        (units.0, hashes.0),
        (0xa365_9e28_6d46_cd52, 0x8a06_fe8d_64ae_9c10),
        "per-unit digest, function-hash digest"
    );
}

/// The same pin for the two FERRUM configurations the three-technique
/// window never builds: ZMM batches, where each 64-unit site runs eight
/// SIMD-seeded lane scans, and forced requisition.  Each program is
/// analysed with and without its manifests, and every unit's summary
/// is digested with its verdict.
#[test]
fn zmm_and_requisition_verdicts_and_footprints_match_the_pinned_digest() {
    let configs = [
        FerrumConfig {
            zmm: true,
            ..FerrumConfig::default()
        },
        FerrumConfig {
            force_requisition: true,
            ..FerrumConfig::default()
        },
    ];
    let (mut units, mut zmm_sites) = (Digest::new(), 0);
    for seed in WINDOW.0..WINDOW.0 + WINDOW.1 {
        let (module, _) = ferrum_fuzz::generate_module(seed);
        for opt in [OptLevel::O0, OptLevel::O1] {
            let asm = ferrum_backend::compile_opt(&module, opt).expect("compiles");
            for cfg in configs {
                let (prot, manifests) = Ferrum::with_config(cfg)
                    .protect_with_manifest(&asm)
                    .expect("protects");
                for map in [
                    CoverageMap::analyze(&prot),
                    CoverageMap::analyze_with(&prot, Some(&manifests)),
                ] {
                    units.units(&map, Some(&SummaryMap::build(&prot, &map)));
                    let sites = map.functions.iter().flat_map(|f| &f.sites);
                    zmm_sites += sites.filter(|s| s.bits == 512).count();
                }
            }
        }
    }
    // The window must build ZMM batches to pin their scans.
    assert!(zmm_sites > 0, "no ZMM site in the window");
    assert_eq!(
        units.0, 0xa4ed_5952_4be7_d2bd,
        "zmm and requisition per-unit digest"
    );
}

/// The GPR bytes and, per SIMD register, the bytes in which two
/// register files differ.
fn changed_bytes(a: &RegFile, b: &RegFile) -> (u128, [u64; 16]) {
    let bytes = |d: u64| (0..8).filter(move |k| (d >> (8 * k)) & 0xff != 0);
    let mut gpr = 0u128;
    for g in ferrum_asm::reg::ALL_GPRS {
        for k in bytes(a.read64(g) ^ b.read64(g)) {
            gpr |= 1 << (g.index() * 8 + k);
        }
    }
    let mut simd = [0u64; 16];
    for (i, m) in simd.iter_mut().enumerate() {
        let z = ferrum_asm::reg::Zmm::new(i as u8);
        for (lane, (x, y)) in a.read_zmm(z).into_iter().zip(b.read_zmm(z)).enumerate() {
            for k in bytes(x ^ y) {
                *m |= 1 << (8 * lane + k);
            }
        }
    }
    (gpr, simd)
}

/// The coverage map books `Masked` on the bytes liveness kills and the
/// SIMD bytes an instruction writes, both taken from `Inst::effects`.
/// On every catalog build, each static instruction at its first
/// execution within the first 100,000 steps of the reference
/// interpreter changes no GPR or SIMD byte outside the table's writes.
#[test]
fn the_machine_writes_no_byte_outside_the_effects_table() {
    const STEPS: u64 = 100_000;
    let mut checks = 0usize;
    for w in all_workloads() {
        let m = w.build(Scale::Test);
        for opt in [OptLevel::O0, OptLevel::O1] {
            let pipeline = Pipeline::new().with_opt_level(opt);
            for technique in [
                Technique::None,
                Technique::IrEddi,
                Technique::HybridAsmEddi,
                Technique::Ferrum,
            ] {
                let build = pipeline.build(&m, technique).expect("builds");
                let insts = &build.cpu().image().insts;
                let mut seen = vec![false; insts.len()];
                let mut machine = Machine::new(build.cpu());
                for _ in 0..STEPS {
                    let pc = machine.state().pc;
                    let first = !std::mem::replace(&mut seen[pc], true);
                    let before = first.then(|| machine.state().regs.clone());
                    let stopped = matches!(machine.step(), StepEvent::Stop(_));
                    if let Some(before) = before {
                        let e = insts[pc].inst.effects();
                        let (gpr, simd) = changed_bytes(&before, &machine.state().regs);
                        let (r, declared) = e.simd_write;
                        let simd_ok = simd.iter().enumerate().all(|(i, &b)| {
                            b & !if i == usize::from(r) { declared } else { 0 } == 0
                        });
                        assert!(
                            gpr & !e.gpr_write == 0 && simd_ok,
                            "{} {opt:?} {technique}: pc {pc} `{}` writes outside its effects",
                            w.name,
                            ferrum_asm::printer::print_inst(&insts[pc].inst)
                        );
                        checks += 1;
                    }
                    if stopped {
                        break;
                    }
                }
            }
        }
    }
    assert!(checks > 10_000, "only {checks} instructions checked");
}

/// A `vpxorq` result copied into the top half of `%zmm3`, after which a
/// `vinserti128` and a `vpxor` (VEX.256 writes, which zero bytes 32–63)
/// clear every copy of bytes 0–15.  The map books those bytes `Masked`
/// although a flush test of `%zmm3` follows, and the machine agrees:
/// every flip in them is benign, while a flip in bytes 16–31, which
/// stay in `%zmm3`, is detected.
#[test]
fn vex256_cleared_zmm_copies_are_masked_and_benign() {
    let asm = ferrum_asm::parser::parse_program(
        "\
.globl main
main:
  vpxorq %zmm0, %zmm1, %zmm2
  vinserti64x4 $1, %ymm2, %zmm3, %zmm3 # prot:ferrum
  vinserti128 $0, %xmm4, %ymm2, %ymm3 # prot:ferrum
  vpxor %ymm4, %ymm4, %ymm2 # prot:ferrum
  vptestq %zmm3, %zmm3 # prot:ferrum
  jne exit_function # prot:ferrum
  ret
",
    )
    .expect("parses");
    let site = CoverageMap::analyze(&asm)
        .site(0)
        .expect("vpxorq site")
        .clone();
    let cpu = Cpu::load(&asm).expect("loads");
    let golden = cpu.run(None);
    assert_eq!(golden.stop, StopReason::MainReturned);
    for raw_bit in 0..256u16 {
        let run = cpu.run(Some(FaultSpec {
            dyn_index: 0,
            raw_bit,
        }));
        let outcome = ferrum_faultsim::campaign::classify(run.stop, &run.output, &golden.output);
        let (verdict, expect) = if raw_bit < 128 {
            (StaticVerdict::Masked, Outcome::Benign)
        } else {
            (StaticVerdict::Detected, Outcome::Detected)
        };
        assert_eq!(site.verdict_for(raw_bit), verdict, "bit {raw_bit}");
        assert_eq!(outcome, expect, "bit {raw_bit}");
    }
}
