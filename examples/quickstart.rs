//! Quickstart: protect a program with FERRUM and watch a fault get
//! caught.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ferrum::{EngineKind, Pipeline, StopReason, Technique};
use ferrum_cpu::fault::FaultSpec;
use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write a small program against the MIR builder API:
    //    print(tab[0]*tab[1] + tab[2]).
    let mut module = Module::new();
    let g = module.add_global(Global::new("tab", vec![6, 7, 0]));
    let mut b = FunctionBuilder::new("main", &[], None);
    let base = b.global(g);
    let i0 = b.iconst(Ty::I64, 0);
    let i1 = b.iconst(Ty::I64, 1);
    let i2 = b.iconst(Ty::I64, 2);
    let p0 = b.gep(base, i0);
    let p1 = b.gep(base, i1);
    let p2 = b.gep(base, i2);
    let a = b.load(Ty::I64, p0);
    let c = b.load(Ty::I64, p1);
    let d = b.load(Ty::I64, p2);
    let prod = b.mul(Ty::I64, a, c);
    let sum = b.add(Ty::I64, prod, d);
    b.print(sum);
    b.ret(None);
    module.functions.push(b.finish());

    // 2. Compile raw and with FERRUM protection.
    let pipeline = Pipeline::new();
    let raw = pipeline.build(&module, Technique::None)?;
    let protected = pipeline.build(&module, Technique::Ferrum)?;
    println!(
        "raw: {} instructions, FERRUM-protected: {} instructions",
        raw.program().static_inst_count(),
        protected.program().static_inst_count()
    );

    // 3. Fault-free runs agree.
    let raw_engine = raw.engine(EngineKind::default());
    let prot_engine = protected.engine(EngineKind::default());
    let golden = raw_engine.run(None);
    assert_eq!(prot_engine.run(None).output, golden.output);
    println!(
        "fault-free output: {:?} ({} cycles raw)",
        golden.output, golden.cycles
    );

    // 4. Inject the same fault into both: flip bit 4 of the destination
    //    of every 10th dynamic instruction and compare outcomes.
    let mut raw_sdc = 0;
    let mut prot_sdc = 0;
    let mut prot_detected = 0;
    for dyn_index in (0..golden.dyn_insts).step_by(10) {
        let fault = Some(FaultSpec::new(dyn_index, 4));
        let r = raw_engine.run(fault);
        if r.stop == StopReason::MainReturned && r.output != golden.output {
            raw_sdc += 1;
        }
        let p = prot_engine.run(fault);
        match p.stop {
            StopReason::Detected => prot_detected += 1,
            StopReason::MainReturned if p.output != golden.output => prot_sdc += 1,
            _ => {}
        }
    }
    println!("raw program:      {raw_sdc} silent corruptions");
    println!("FERRUM-protected: {prot_sdc} silent corruptions, {prot_detected} detections");
    assert_eq!(prot_sdc, 0, "FERRUM must catch every corruption");
    Ok(())
}
