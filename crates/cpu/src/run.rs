//! The top-level simulator: load once, run many times (optionally with a
//! fault), and profile to enumerate injectable sites.

use ferrum_asm::program::AsmProgram;
use ferrum_asm::provenance::{Mechanism, Provenance};

use crate::cost::CostModel;
use crate::exec::{eligible_dest_bits, StepEvent};
use crate::fault::FaultSpec;
use crate::image::{Image, LoadError, TargetRef};
use crate::outcome::{RunResult, StopReason};
use crate::profile::{PcProfile, ProfileBuilder};
use crate::snapshot::Machine;

/// A loaded program ready for repeated simulation.
#[derive(Debug, Clone)]
pub struct Cpu {
    image: Image,
    cost: CostModel,
    step_limit: u64,
}

/// One injectable dynamic fault site discovered by profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteInfo {
    /// Dynamic index of the instruction.
    pub dyn_index: u64,
    /// Flat program counter of the instruction (static identity; keys
    /// into `ferrum_asm::analysis::coverage::CoverageMap`).
    pub pc: usize,
    /// Provenance of the instruction (for root-cause attribution).
    pub prov: Provenance,
    /// True when the injectable destination is RFLAGS.
    pub is_flags: bool,
    /// Width in bits of the injectable destination — the campaign
    /// sampler draws the fault bit uniformly from `0..bits` so that no
    /// destination bit is over-weighted by modulo reduction.
    pub bits: u32,
}

/// Dynamic instruction counts by provenance class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvCounts {
    /// Instructions lowered from IR instructions.
    pub from_ir: u64,
    /// Backend glue (store staging, branch materialisation, ...).
    pub glue: u64,
    /// Protection-inserted code.
    pub protection: u64,
    /// Synthetic/hand-written code.
    pub synthetic: u64,
}

impl ProvCounts {
    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.from_ir + self.glue + self.protection + self.synthetic
    }
}

/// Executed-instruction and cycle-proxy totals for one protection
/// mechanism — one row of the paper's overhead-breakdown figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MechCount {
    /// Dynamic (executed) instructions carrying this mechanism tag.
    pub insts: u64,
    /// Cycle-proxy cost those instructions accrued under the active
    /// [`CostModel`] (co-issue discount included).
    pub cycles: u64,
}

/// Per-mechanism dynamic cost attribution, indexed by
/// [`Mechanism::ALL`] order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MechCounts {
    counts: [MechCount; Mechanism::ALL.len()],
}

impl MechCounts {
    fn index(m: Mechanism) -> usize {
        Mechanism::ALL
            .iter()
            .position(|&x| x == m)
            .expect("mechanism in ALL")
    }

    /// The totals for one mechanism.
    pub fn get(&self, m: Mechanism) -> MechCount {
        self.counts[Self::index(m)]
    }

    pub(crate) fn add(&mut self, m: Mechanism, cycles: u64) {
        self.add_counts(m, 1, cycles);
    }

    /// Accumulates pre-aggregated totals into mechanism `m` (used by
    /// differential profilers that fold per-pc counts back into
    /// per-mechanism totals).
    pub fn add_counts(&mut self, m: Mechanism, insts: u64, cycles: u64) {
        let c = &mut self.counts[Self::index(m)];
        c.insts += insts;
        c.cycles += cycles;
    }

    /// Iterates `(mechanism, totals)` in [`Mechanism::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Mechanism, MechCount)> + '_ {
        Mechanism::ALL.iter().map(|&m| (m, self.get(m)))
    }

    /// Sum of executed protection instructions across mechanisms.
    pub fn total_insts(&self) -> u64 {
        self.counts.iter().map(|c| c.insts).sum()
    }

    /// Sum of cycle-proxy cost across mechanisms.
    pub fn total_cycles(&self) -> u64 {
        self.counts.iter().map(|c| c.cycles).sum()
    }
}

/// Result of a profiling run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Every injectable dynamic site, in execution order.
    pub sites: Vec<SiteInfo>,
    /// Dynamic instruction counts by provenance class.
    pub prov_counts: ProvCounts,
    /// Executed-instruction and cycle totals per protection mechanism
    /// (all zero for unprotected programs).
    pub mech_counts: MechCounts,
    /// Exact per-pc / per-function / folded-stack counts
    /// (byte-identical across engines).
    pub pcs: PcProfile,
    /// The fault-free run result (golden output, baseline cycles).
    pub result: RunResult,
}

impl Profile {
    /// The injectable site executed at dynamic index `dyn_index`, or
    /// `None` when that instruction has no injectable destination or
    /// lies outside the run.  A binary search: `sites` are recorded in
    /// execution order, so their `dyn_index`es strictly increase.
    pub fn site_at(&self, dyn_index: u64) -> Option<&SiteInfo> {
        self.sites
            .binary_search_by_key(&dyn_index, |s| s.dyn_index)
            .ok()
            .map(|i| &self.sites[i])
    }
}

impl Cpu {
    /// Loads `p` with the default cost model and step limit (50 M).
    ///
    /// # Errors
    ///
    /// Propagates [`LoadError`] from image construction.
    pub fn load(p: &AsmProgram) -> Result<Cpu, LoadError> {
        Ok(Cpu {
            image: Image::load(p)?,
            cost: CostModel::default(),
            step_limit: 50_000_000,
        })
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Cpu {
        self.cost = cost;
        self
    }

    /// Replaces the dynamic step limit (timeout detection).
    pub fn with_step_limit(mut self, limit: u64) -> Cpu {
        self.step_limit = limit;
        self
    }

    /// The loaded image.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// The active cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The active step limit.
    pub fn step_limit(&self) -> u64 {
        self.step_limit
    }

    /// Runs the program, optionally injecting one fault.
    pub fn run(&self, fault: Option<FaultSpec>) -> RunResult {
        match fault {
            Some(f) => self.run_multi(&[f]),
            None => self.run_multi(&[]),
        }
    }

    /// Runs the program injecting every fault in `faults` (each at its
    /// own dynamic index).  The paper's evaluation uses a single fault
    /// per run (§II-A); multi-fault campaigns are the paper's stated
    /// future work, reproduced by `repro multibit`.
    pub fn run_multi(&self, faults: &[FaultSpec]) -> RunResult {
        Machine::new(self).run_to_completion(faults)
    }

    /// Runs fault-free while recording every injectable dynamic site:
    /// one [`Machine`] step at a time, reading the pc before each step
    /// and the cycles it cost after it.
    pub fn profile(&self) -> Profile {
        let mut m = Machine::new(self);
        let mut sites = Vec::new();
        let mut prov_counts = ProvCounts::default();
        let mut mech_counts = MechCounts::default();
        let mut pcs = ProfileBuilder::new(&self.image);
        loop {
            let (pc, before) = (m.state().pc, m.cycles());
            let ev = m.step();
            if ev == StepEvent::Stop(StopReason::Timeout) {
                break;
            }
            let li = &self.image.insts[pc];
            match li.prov {
                Provenance::FromIr(_) => prov_counts.from_ir += 1,
                Provenance::Glue(_) => prov_counts.glue += 1,
                Provenance::Protection(..) => prov_counts.protection += 1,
                Provenance::Synthetic => prov_counts.synthetic += 1,
            }
            if let Some(bits) = eligible_dest_bits(&li.inst) {
                sites.push(SiteInfo {
                    dyn_index: m.dyn_insts() - 1,
                    pc,
                    prov: li.prov,
                    is_flags: matches!(li.inst.dest_class(), ferrum_asm::inst::DestClass::Rflags),
                    bits,
                });
            }
            let step_cycles = m.cycles() - before;
            if let Some(mech) = li.prov.mechanism() {
                mech_counts.add(mech, step_cycles);
            }
            pcs.record(pc, step_cycles);
            match (&li.inst, li.target) {
                (ferrum_asm::inst::Inst::Call { .. }, TargetRef::Index(t)) => pcs.enter(t),
                (ferrum_asm::inst::Inst::Ret, _) => pcs.leave(),
                _ => {}
            }
            if let StepEvent::Stop(_) = ev {
                break;
            }
        }
        Profile {
            sites,
            prov_counts,
            mech_counts,
            pcs: pcs.finish(),
            result: m.result(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::{Global, Module};
    use ferrum_mir::types::Ty;

    fn compile_and_load(m: &Module) -> Cpu {
        let asm = ferrum_backend::compile(m).expect("compiles");
        Cpu::load(&asm).expect("loads")
    }

    fn simple_sum_module() -> Module {
        // print(tab[0] + tab[1] + tab[2])
        let mut module = Module::new();
        let g = module.add_global(Global::new("tab", vec![10, 20, 12]));
        let mut b = FunctionBuilder::new("main", &[], None);
        let base = b.global(g);
        let mut acc = b.iconst(Ty::I64, 0);
        for i in 0..3 {
            let idx = b.iconst(Ty::I64, i);
            let p = b.gep(base, idx);
            let v = b.load(Ty::I64, p);
            acc = b.add(Ty::I64, acc, v);
        }
        b.print(acc);
        b.ret(None);
        module.functions.push(b.finish());
        module
    }

    #[test]
    fn compiled_program_matches_interpreter() {
        let m = simple_sum_module();
        let golden = ferrum_mir::interp::Interp::new(&m).run().unwrap();
        let cpu = compile_and_load(&m);
        let r = cpu.run(None);
        assert_eq!(r.stop, StopReason::MainReturned);
        assert_eq!(r.output, golden.output);
        assert_eq!(r.output, vec![42]);
        assert!(r.cycles > 0 && r.dyn_insts > 0);
    }

    #[test]
    fn loops_and_branches_execute() {
        // print(sum of 0..10)
        let mut b = FunctionBuilder::new("main", &[], None);
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        let pi = b.alloca(Ty::I64);
        let ps = b.alloca(Ty::I64);
        let zero = b.iconst(Ty::I64, 0);
        b.store(Ty::I64, zero, pi);
        b.store(Ty::I64, zero, ps);
        b.jmp(header);
        b.switch_to(header);
        let i = b.load(Ty::I64, pi);
        let ten = b.iconst(Ty::I64, 10);
        let c = b.icmp(ferrum_mir::inst::ICmpPred::Slt, Ty::I64, i, ten);
        b.br(c, body, exit);
        b.switch_to(body);
        let i2 = b.load(Ty::I64, pi);
        let s = b.load(Ty::I64, ps);
        let s2 = b.add(Ty::I64, s, i2);
        b.store(Ty::I64, s2, ps);
        let one = b.iconst(Ty::I64, 1);
        let i3 = b.add(Ty::I64, i2, one);
        b.store(Ty::I64, i3, pi);
        b.jmp(header);
        b.switch_to(exit);
        let r = b.load(Ty::I64, ps);
        b.print(r);
        b.ret(None);
        let m = Module::from_functions(vec![b.finish()]);
        let cpu = compile_and_load(&m);
        let result = cpu.run(None);
        assert_eq!(result.output, vec![45]);
    }

    #[test]
    fn function_calls_work_in_simulation() {
        let mut callee = FunctionBuilder::new("mul3", &[Ty::I64], Some(Ty::I64));
        let three = callee.iconst(Ty::I64, 3);
        let r = callee.mul(Ty::I64, callee.arg(0), three);
        callee.ret(Some(r));
        let mut main = FunctionBuilder::new("main", &[], None);
        let x = main.iconst(Ty::I64, 14);
        let r = main.call("mul3", vec![x], Some(Ty::I64)).unwrap();
        main.print(r);
        main.ret(None);
        let m = Module::from_functions(vec![main.finish(), callee.finish()]);
        let cpu = compile_and_load(&m);
        assert_eq!(cpu.run(None).output, vec![42]);
    }

    #[test]
    fn infinite_loop_times_out() {
        let mut b = FunctionBuilder::new("main", &[], None);
        let lp = b.create_block("lp");
        b.jmp(lp);
        b.switch_to(lp);
        b.jmp(lp);
        let m = Module::from_functions(vec![b.finish()]);
        let asm = ferrum_backend::compile(&m).unwrap();
        let cpu = Cpu::load(&asm).unwrap().with_step_limit(1000);
        assert_eq!(cpu.run(None).stop, StopReason::Timeout);
    }

    #[test]
    fn profile_enumerates_sites_and_matches_run() {
        let m = simple_sum_module();
        let cpu = compile_and_load(&m);
        let prof = cpu.profile();
        let run = cpu.run(None);
        assert_eq!(prof.result, run);
        assert!(!prof.sites.is_empty());
        // All site indices are within the dynamic stream and increasing.
        let mut prev = None;
        for s in &prof.sites {
            assert!(s.dyn_index < run.dyn_insts);
            if let Some(p) = prev {
                assert!(s.dyn_index > p);
            }
            prev = Some(s.dyn_index);
        }
        // Flag sites exist only if a cmp/test executed; this program has
        // no branches, so none are flagged... the icmp-free sum has no
        // cmp at all.
        assert!(prof.sites.iter().all(|s| !s.is_flags));
    }

    #[test]
    fn site_at_finds_exactly_the_profiled_sites() {
        let cpu = compile_and_load(&simple_sum_module());
        let prof = cpu.profile();
        for s in &prof.sites {
            assert_eq!(prof.site_at(s.dyn_index), Some(s));
        }
        // Every dynamic index that is not a site — before the first,
        // between two, past the last — finds nothing.
        let first = prof.sites[0].dyn_index;
        let last = prof.sites[prof.sites.len() - 1].dyn_index;
        let gaps: Vec<u64> = (0..=last + 2)
            .filter(|&i| prof.sites.iter().all(|s| s.dyn_index != i))
            .collect();
        assert!(gaps.iter().any(|&i| i > first && i < last), "{gaps:?}");
        assert!(gaps.contains(&(last + 1)));
        assert!(
            first > 0 && gaps.contains(&0),
            "the prologue push is no site"
        );
        for i in gaps.into_iter().chain([u64::MAX]) {
            assert_eq!(prof.site_at(i), None, "dyn_index {i}");
        }
    }

    #[test]
    fn profile_prov_counts_sum_to_dynamic_length() {
        let m = simple_sum_module();
        let cpu = compile_and_load(&m);
        let prof = cpu.profile();
        assert_eq!(prof.prov_counts.total(), prof.result.dyn_insts);
        assert!(prof.prov_counts.from_ir > 0);
        assert!(prof.prov_counts.glue > 0, "prologue/store glue expected");
        assert_eq!(prof.prov_counts.protection, 0, "unprotected program");
    }

    #[test]
    fn mech_counts_reconcile_with_protection_count() {
        // An unprotected program attributes nothing to any mechanism.
        let m = simple_sum_module();
        let cpu = compile_and_load(&m);
        let prof = cpu.profile();
        assert_eq!(prof.mech_counts.total_insts(), 0);
        assert_eq!(prof.mech_counts.total_cycles(), 0);
        assert_eq!(prof.mech_counts, MechCounts::default());
    }

    #[test]
    fn fault_injection_changes_output_or_more() {
        let m = simple_sum_module();
        let cpu = compile_and_load(&m);
        let prof = cpu.profile();
        // Inject into every site with bit 0 and observe at least one SDC
        // (silent wrong output) across the campaign, plus determinism.
        let golden = prof.result.output.clone();
        let mut sdc = 0;
        for s in &prof.sites {
            let r1 = cpu.run(Some(FaultSpec::new(s.dyn_index, 0)));
            let r2 = cpu.run(Some(FaultSpec::new(s.dyn_index, 0)));
            assert_eq!(r1, r2, "simulation must be deterministic");
            if r1.stop == StopReason::MainReturned && r1.output != golden {
                sdc += 1;
            }
        }
        assert!(sdc > 0, "an unprotected program must show SDCs");
    }

    #[test]
    fn fault_free_run_has_no_detection() {
        let m = simple_sum_module();
        let cpu = compile_and_load(&m);
        assert_eq!(cpu.run(None).stop, StopReason::MainReturned);
    }

    #[test]
    fn multi_fault_injection_applies_both_faults() {
        let m = simple_sum_module();
        let cpu = compile_and_load(&m);
        let prof = cpu.profile();
        let a = prof.sites[2];
        let b = prof.sites[5];
        let single_a = cpu.run(Some(FaultSpec::new(a.dyn_index, 1)));
        let single_b = cpu.run(Some(FaultSpec::new(b.dyn_index, 1)));
        let both = cpu.run_multi(&[
            FaultSpec::new(a.dyn_index, 1),
            FaultSpec::new(b.dyn_index, 1),
        ]);
        // Injecting both cannot equal a fault-free run unless each alone
        // was benign with identical output.
        let golden = cpu.run(None);
        if single_a.output != golden.output || single_b.output != golden.output {
            assert_ne!(both.output, golden.output);
        }
        assert_eq!(cpu.run_multi(&[]), golden);
    }

    #[test]
    fn cost_model_is_configurable() {
        let m = simple_sum_module();
        let asm = ferrum_backend::compile(&m).unwrap();
        let cheap = Cpu::load(&asm).unwrap();
        let model = CostModel {
            mem_load: 30,
            mem_store: 30,
            ..CostModel::default()
        };
        let expensive = Cpu::load(&asm).unwrap().with_cost_model(model);
        assert!(expensive.run(None).cycles > cheap.run(None).cycles);
    }
}
