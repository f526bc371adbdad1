//! Properties of the assembly model over seeded random instructions:
//! printer/parser round trips, register usage, and the coverage map's
//! completeness, rollups and liveness base case.
//!
//! Every property loops over `ferrum_rng::Rng64` seeds and each
//! assertion names the seed it failed on, so a failure pins as a fixed
//! input: regenerate it with `Rng64::seed_from_u64(seed)` and the same
//! generator calls, and keep it as a fixed case the way
//! `printer_parser_round_trip` keeps an index-only `lea`.

use ferrum_asm::analysis::coverage::{CoverageMap, StaticVerdict, VerdictCounts};
use ferrum_asm::analysis::liveness::{byte_bit, read_bytes, Liveness};
use ferrum_asm::analysis::{Cfg, RegUsage, SpareReport};
use ferrum_asm::flags::Cc;
use ferrum_asm::inst::{AluOp, DestClass, Inst, ShiftAmount, ShiftOp, UnaryOp};
use ferrum_asm::operand::{MemRef, Operand, Scale};
use ferrum_asm::parser::{parse_inst, parse_program};
use ferrum_asm::printer::{print_inst, print_program};
use ferrum_asm::program::{single_block_main, AsmBlock, AsmFunction, AsmInst, DataObject};
use ferrum_asm::reg::{Gpr, Reg, Width, Xmm, Ymm, Zmm, ALL_GPRS};
use ferrum_rng::Rng64;

/// Seeds per property.
const CASES: u64 = 3000;

fn gpr(rng: &mut Rng64) -> Gpr {
    ALL_GPRS[rng.gen_range(0..ALL_GPRS.len())]
}

fn width(rng: &mut Rng64) -> Width {
    Width::ALL[rng.gen_range(0..Width::ALL.len())]
}

fn coin(rng: &mut Rng64) -> bool {
    rng.gen_below(2) == 0
}

fn memref(rng: &mut Rng64) -> MemRef {
    const SCALES: [Scale; 4] = [Scale::S1, Scale::S2, Scale::S4, Scale::S8];
    let disp = rng.gen_range(-512i64..512);
    let base = coin(rng).then(|| gpr(rng));
    let index = coin(rng).then(|| (gpr(rng), SCALES[rng.gen_range(0..SCALES.len())]));
    if base.is_none() && index.is_none() {
        MemRef::global("gsym", disp.abs())
    } else {
        MemRef {
            disp,
            base,
            index,
            symbol: None,
        }
    }
}

fn reg_op(rng: &mut Rng64) -> Operand {
    Operand::Reg(Reg::gpr(gpr(rng), width(rng)))
}

fn operand(rng: &mut Rng64) -> Operand {
    match rng.gen_below(3) {
        0 => reg_op(rng),
        1 => Operand::Imm(i64::from(rng.next_u32() as i32)),
        _ => Operand::Mem(memref(rng)),
    }
}

fn cc(rng: &mut Rng64) -> Cc {
    Cc::ALL[rng.gen_range(0..Cc::ALL.len())]
}

fn simd(rng: &mut Rng64) -> u8 {
    rng.gen_range(0..16usize) as u8
}

/// One instruction of 16 forms: moves, `movslq`, `lea`, ALU, shifts,
/// unary ops, compares, `setcc`, `jcc`, the SIMD checker sequence,
/// `ret`, `nop`, `push` and `pop`.
fn inst(rng: &mut Rng64) -> Inst {
    match rng.gen_below(16) {
        0 => Inst::Mov {
            w: width(rng),
            src: operand(rng),
            dst: reg_op(rng),
        },
        1 => Inst::Movsx {
            src_w: Width::W32,
            dst_w: Width::W64,
            src: operand(rng),
            dst: Reg::q(gpr(rng)),
        },
        2 => Inst::Lea {
            mem: memref(rng),
            dst: Reg::q(gpr(rng)),
        },
        3 => {
            const OPS: [AluOp; 5] = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor];
            Inst::Alu {
                op: OPS[rng.gen_range(0..OPS.len())],
                w: width(rng),
                src: operand(rng),
                dst: reg_op(rng),
            }
        }
        4 => {
            const OPS: [ShiftOp; 3] = [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar];
            Inst::Shift {
                op: OPS[rng.gen_range(0..OPS.len())],
                w: width(rng),
                amount: if coin(rng) {
                    ShiftAmount::Imm(rng.gen_range(0..64usize) as u8)
                } else {
                    ShiftAmount::Cl
                },
                dst: reg_op(rng),
            }
        }
        5 => Inst::Unary {
            op: if coin(rng) {
                UnaryOp::Neg
            } else {
                UnaryOp::Not
            },
            w: width(rng),
            dst: reg_op(rng),
        },
        6 => Inst::Cmp {
            w: width(rng),
            src: operand(rng),
            dst: reg_op(rng),
        },
        7 => Inst::Setcc {
            cc: cc(rng),
            dst: Operand::Reg(Reg::b(gpr(rng))),
        },
        8 => Inst::Jcc {
            cc: cc(rng),
            target: "label_x".into(),
        },
        9 => Inst::Pinsrq {
            lane: rng.gen_range(0..2usize) as u8,
            src: operand(rng),
            dst: Xmm::new(simd(rng)),
        },
        10 => Inst::Vinserti128 {
            lane: rng.gen_range(0..2usize) as u8,
            src: Xmm::new(simd(rng)),
            src2: Ymm::new(simd(rng)),
            dst: Ymm::new(simd(rng)),
        },
        11 => Inst::Vpxor {
            a: Ymm::new(simd(rng)),
            b: Ymm::new(simd(rng)),
            dst: Ymm::new(simd(rng)),
        },
        12 => Inst::Ret,
        13 => Inst::Nop,
        14 => Inst::Push {
            src: Operand::Reg(Reg::q(gpr(rng))),
        },
        _ => Inst::Pop {
            dst: Operand::Reg(Reg::q(gpr(rng))),
        },
    }
}

/// Between `min` and `max - 1` instructions.
fn insts(rng: &mut Rng64, min: usize, max: usize) -> Vec<Inst> {
    (0..rng.gen_range(min..max)).map(|_| inst(rng)).collect()
}

fn assert_inst_round_trips(what: &str, inst: &Inst) {
    let text = print_inst(inst);
    let back = parse_inst(&text).unwrap_or_else(|e| panic!("{what}: parse `{text}`: {e}"));
    assert_eq!(&back, inst, "{what}: `{text}`");
}

#[test]
fn printer_parser_round_trip() {
    // Fixed input: an index-only address, `leaq (,%rax,1), %rax`.
    let index_only = Inst::Lea {
        mem: MemRef {
            disp: 0,
            base: None,
            index: Some((Gpr::Rax, Scale::S1)),
            symbol: None,
        },
        dst: Reg::q(Gpr::Rax),
    };
    assert_inst_round_trips("index-only lea", &index_only);
    for seed in 0..20 * CASES {
        let rng = &mut Rng64::seed_from_u64(seed);
        assert_inst_round_trips(&format!("seed {seed}"), &inst(rng));
    }
}

#[test]
fn program_listing_round_trips() {
    for seed in 0..CASES {
        let rng = &mut Rng64::seed_from_u64(seed);
        let mut p = single_block_main(insts(rng, 0, 12));
        p.data.push(DataObject::new("blob", vec![1, -2, 3]));
        let text = print_program(&p);
        let back = parse_program(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(back, p, "seed {seed}:\n{text}");
    }
}

#[test]
fn parser_never_panics_on_noise() {
    // Arbitrary printable junk must produce Ok or Err, never a panic.
    for seed in 0..20 * CASES {
        let rng = &mut Rng64::seed_from_u64(seed);
        let len = rng.gen_range(0..41usize);
        let s: String = (0..len)
            .map(|_| char::from(b' ' + rng.gen_below(95) as u8))
            .collect();
        let parsed = std::panic::catch_unwind(|| {
            let _ = parse_inst(&s);
            let _ = parse_program(&s);
        });
        assert!(parsed.is_ok(), "seed {seed}: the parser panicked on {s:?}");
    }
}

#[test]
fn parser_and_validator_never_panic_on_edited_listings() {
    // Near-valid input reaches deeper than noise: a printed listing
    // with one to three bytes replaced, inserted or deleted must parse
    // to Ok or Err, and a program that parses must validate to Ok or
    // Err, never a panic.
    for seed in 0..CASES {
        let rng = &mut Rng64::seed_from_u64(seed);
        let mut p = single_block_main(insts(rng, 1, 12));
        p.data.push(DataObject::new("blob", vec![1, -2, 3]));
        let mut bytes = print_program(&p).into_bytes();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..bytes.len() + 1);
            let byte = rng.gen_below(128) as u8;
            match rng.gen_below(3) {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, byte),
            }
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let checked = std::panic::catch_unwind(|| {
            if let Ok(p) = parse_program(&text) {
                let _ = p.validate();
            }
        });
        assert!(
            checked.is_ok(),
            "seed {seed}: panicked on the edited listing\n{text}"
        );
    }
}

#[test]
fn function_usage_is_union_of_block_usages() {
    for seed in 0..CASES {
        let rng = &mut Rng64::seed_from_u64(seed);
        let mut f = AsmFunction::new("main");
        for i in 0..rng.gen_range(1..5usize) {
            let mut b = AsmBlock::new(format!("b{i}"));
            b.insts = insts(rng, 0, 8)
                .into_iter()
                .map(AsmInst::synthetic)
                .collect();
            f.blocks.push(b);
        }
        let rep = SpareReport::scan(&f);
        let mut union = RegUsage::new();
        for u in &rep.per_block {
            union.merge(*u);
        }
        assert_eq!(rep.function, union, "seed {seed}");
    }
}

#[test]
fn effects_write_every_injectable_destination() {
    // Every byte of an injectable GPR destination is written, an
    // injectable SIMD destination is the register written (`pinsrq`
    // writes one lane of its XMM destination), and every address
    // register is read.
    for seed in 0..20 * CASES {
        let rng = &mut Rng64::seed_from_u64(seed);
        let inst = inst(rng);
        let e = inst.effects();
        let (gprs, simd) = match inst.dest_class() {
            DestClass::Gpr(r) => (read_bytes(r.gpr, r.width), None),
            DestClass::RaxRdxPair(w) => (read_bytes(Gpr::Rax, w) | read_bytes(Gpr::Rdx, w), None),
            DestClass::Xmm(Xmm(r)) | DestClass::Ymm(Ymm(r)) | DestClass::Zmm(Zmm(r)) => {
                (0, Some(r))
            }
            DestClass::Rflags | DestClass::None => (0, None),
        };
        assert_eq!(e.gpr_write & gprs, gprs, "seed {seed}: {inst:?}");
        if let Some(r) = simd {
            let (written, bytes) = e.simd_write;
            assert!(written == r && bytes != 0, "seed {seed}: {inst:?}");
        }
        assert_eq!(e.gpr_read & e.addr, e.addr, "seed {seed}: {inst:?}");
    }
}

#[test]
fn coverage_map_covers_every_injectable_site() {
    for seed in 0..CASES {
        let rng = &mut Rng64::seed_from_u64(seed);
        let p = single_block_main(insts(rng, 0, 16));
        let map = CoverageMap::analyze(&p);
        // Single-block main ⇒ flat pc == instruction index.
        for (pc, ai) in p.functions[0].blocks[0].insts.iter().enumerate() {
            let Some(bits) = ai.inst.injectable_bits() else {
                assert!(
                    map.site(pc).is_none(),
                    "seed {seed}: pc {pc} is not injectable"
                );
                continue;
            };
            let site = map
                .site(pc)
                .unwrap_or_else(|| panic!("seed {seed}: injectable pc {pc} has no entry"));
            assert_eq!(site.bits, bits, "seed {seed}: pc {pc}");
            let units = match ai.inst.dest_class() {
                DestClass::Rflags => 1,
                _ => bits as usize / 8,
            };
            assert_eq!(site.units(), units, "seed {seed}: pc {pc}");
            // Every raw bit resolves to a verdict.
            for raw in 0..(2 * bits as u16) {
                assert!(
                    map.verdict_at(pc, raw).is_some(),
                    "seed {seed}: pc {pc} bit {raw}"
                );
            }
        }
    }
}

#[test]
fn coverage_rollups_sum_and_analysis_is_deterministic() {
    for seed in 0..CASES {
        let rng = &mut Rng64::seed_from_u64(seed);
        let p = single_block_main(insts(rng, 0, 16));
        let map = CoverageMap::analyze(&p);
        // Function rollups merge to the global rollup, which counts
        // exactly one verdict per site unit.
        let mut merged = VerdictCounts::default();
        let mut units = 0usize;
        for f in &map.functions {
            merged.merge(&f.rollup);
            units += f.sites.iter().map(|s| s.units()).sum::<usize>();
        }
        assert_eq!(merged, map.rollup(), "seed {seed}");
        assert_eq!(merged.total(), units, "seed {seed}");
        let mech_total: usize = map.mechanism_rollup().iter().map(|(_, c)| c.total()).sum();
        assert_eq!(mech_total, units, "seed {seed}");
        // Same input ⇒ same map.
        assert_eq!(
            map.functions,
            CoverageMap::analyze(&p).functions,
            "seed {seed}"
        );
    }
}

#[test]
fn dead_destination_bytes_are_always_masked() {
    // Liveness-masking is the base case of the classifier: a
    // destination byte dead immediately after the faulted instruction
    // must be Masked (the exact-taint scan can only add *more* Masked
    // verdicts, never lose this one).
    for seed in 0..CASES {
        let rng = &mut Rng64::seed_from_u64(seed);
        let p = single_block_main(insts(rng, 1, 16));
        let map = CoverageMap::analyze(&p);
        let f = &p.functions[0];
        let live = Liveness::compute(f, &Cfg::build(f));
        let after = live.live_after_each(f, 0);
        for (pc, ai) in f.blocks[0].insts.iter().enumerate() {
            // `%rsp`/`%rbp` destinations are not fault sites.
            let DestClass::Gpr(r) = ai.inst.dest_class() else {
                continue;
            };
            if r.gpr.is_frame() {
                continue;
            }
            let site = map
                .site(pc)
                .unwrap_or_else(|| panic!("seed {seed}: gpr destination at pc {pc} has no site"));
            for byte in 0..site.units() {
                if after[pc] & byte_bit(r.gpr, byte as u8) == 0 {
                    assert_eq!(
                        site.verdict(byte),
                        StaticVerdict::Masked,
                        "seed {seed}: pc {pc} byte {byte} is dead but not Masked"
                    );
                }
            }
        }
    }
}
