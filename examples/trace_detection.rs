//! Watch a checker fire, instruction by instruction: inject a fault
//! into a FERRUM-protected program and render the execution trace up to
//! the detection.
//!
//! ```sh
//! cargo run --example trace_detection
//! ```

use ferrum::{EngineKind, Pipeline, StopReason, Technique};
use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::trace::WroteValue;
use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // print(tab[0] + tab[1])
    let mut module = Module::new();
    let g = module.add_global(Global::new("tab", vec![40, 2]));
    let mut b = FunctionBuilder::new("main", &[], None);
    let base = b.global(g);
    let zero = b.iconst(Ty::I64, 0);
    let one = b.iconst(Ty::I64, 1);
    let p0 = b.gep(base, zero);
    let p1 = b.gep(base, one);
    let a = b.load(Ty::I64, p0);
    let c = b.load(Ty::I64, p1);
    let s = b.add(Ty::I64, a, c);
    b.print(s);
    b.ret(None);
    module.functions.push(b.finish());

    let pipeline = Pipeline::new();
    let build = pipeline.build(&module, Technique::Ferrum)?;
    let engine = build.engine(EngineKind::default());

    // Find a fault that gets detected, then show the trace.
    let fault = build
        .profile()
        .sites
        .iter()
        .find_map(|site| {
            let f = FaultSpec::new(site.dyn_index, 2);
            (engine.run(Some(f)).stop == StopReason::Detected).then_some(f)
        })
        .expect("some fault is detected");

    println!(
        "injecting bit 2 at dynamic instruction {}:\n",
        fault.dyn_index
    );
    // The instruction trace is the reference interpreter's.
    let trace = build.cpu().run_traced(Some(fault), 200);
    // Print a window around the injection point.
    let from = fault.dyn_index.saturating_sub(4);
    for e in &trace.entries {
        if e.dyn_index < from {
            continue;
        }
        let marker = if e.dyn_index == fault.dyn_index {
            "  <-- FAULT"
        } else {
            ""
        };
        let wrote = match e.wrote {
            WroteValue::None => String::new(),
            w => format!(" -> {w}"),
        };
        println!(
            "{:>5}  {:<42} # {}{}{}",
            e.dyn_index, e.text, e.prov, wrote, marker
        );
    }
    println!(
        "\nstop: {}   (output so far: {:?})",
        trace.result.stop, trace.result.output
    );
    assert_eq!(trace.result.stop, StopReason::Detected);
    Ok(())
}
