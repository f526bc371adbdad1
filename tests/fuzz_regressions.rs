//! Pinned differential-fuzzer regressions.
//!
//! Every divergence the `ferrum-fuzz` harness has ever surfaced is
//! minimized to its seed and pinned here, so the exact program that
//! broke a layer once is re-checked on every tier-1 run — much
//! cheaper than re-fuzzing, and immune to generator drift hiding the
//! shape (the generator is seeded and deterministic by contract).

use ferrum_fuzz::{check_program, generate_module, run_fuzz, FuzzConfig};
use ferrum_mir::interp::Interp;

/// Regression: loop counters must live in slots ordinary statements
/// can never store through.  An early generator drew the induction
/// slot from the general pool, so a nested statement inside the body
/// could reset it every iteration — seed 65 spun until the step
/// limit.  The pinned seed must now terminate (and pass the whole
/// stack).
#[test]
fn seed_65_terminates_with_isolated_loop_counters() {
    let (m, _) = generate_module(65);
    ferrum_mir::verify::verify_module(&m).expect("verifies");
    Interp::new(&m).run().expect("seed 65 must terminate");
    let (_, _, divergences) = check_program(65, 10);
    assert!(divergences.is_empty(), "{divergences:#?}");
}

/// The head of the tier-1 fuzz window (seeds 42..92) stays clean.
/// `scripts/tier1.sh` sweeps 200 programs from the same base seed;
/// this is the fast in-process guard for `cargo test` alone.
#[test]
fn tier1_seed_window_head_is_clean() {
    let report = run_fuzz(
        &FuzzConfig {
            programs: 50,
            base_seed: 42,
            campaign_samples: 8,
        },
        |_, _| {},
    );
    assert_eq!(report.programs, 50);
    assert!(report.is_clean(), "{:#?}", report.divergences);
}

/// The structurally heaviest programs in the first 200 seeds — most
/// basic blocks in `main`, i.e. deepest loop/diamond nesting — get
/// the full oracle stack individually.  These are the shapes most
/// likely to shake out pass-pipeline CFG bugs, so they stay pinned
/// even if the uniform sweep above shrinks.
#[test]
fn heaviest_cfg_seeds_run_clean() {
    let mut shapes: Vec<(usize, u64)> = (42..242)
        .map(|seed| (generate_module(seed).1.blocks, seed))
        .collect();
    shapes.sort_unstable();
    shapes.reverse();
    for &(blocks, seed) in shapes.iter().take(3) {
        assert!(blocks > 8, "seed {seed}: generator lost CFG diversity");
        let (_, _, divergences) = check_program(seed, 10);
        assert!(divergences.is_empty(), "seed {seed}: {divergences:#?}");
    }
}

/// Regression: a shift by a zero count still writes its destination.
/// Both engines skipped the write, so `shrl %cl, %r10d` with `%cl` = 0
/// kept bits 32–63 of `%r10`, where the machine (and `Inst::effects`,
/// and so the coverage map) clears them.  Seed 5088 at `-O0` copies a
/// value into `%r10` with FERRUM's duplicate `movq %rax, %r10` and
/// then shifts `%r10d` by `%cl` = 0: the map booked bytes 4–7 of the
/// copy `Masked`, injection said `Detected`.  Both seeds failed
/// `pruned-identity` and `verdict-soundness` at `-O0` in 400-fault
/// campaigns, and both pass with the write restored.
#[test]
fn zero_count_shift_seeds_are_sound_under_deep_campaigns() {
    for seed in [5088, 5234] {
        let (_, checks, divergences) = check_program(seed, 400);
        assert!(divergences.is_empty(), "seed {seed}: {divergences:#?}");
        assert_eq!(checks, 40, "seed {seed}: every stage ran");
    }
}
