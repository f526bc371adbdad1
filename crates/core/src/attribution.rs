//! Per-mechanism overhead attribution.
//!
//! FERRUM's runtime overhead is the sum of several distinct mechanisms
//! — scalar duplication, immediate checks, SIMD batch captures and
//! flushes, deferred flag detection, and stack-level register
//! requisition.  Every instruction a protection pass inserts carries a
//! [`Mechanism`] in its provenance, and the simulator's profile
//! ([`ferrum_cpu::run::Profile::mech_counts`]) accumulates executed
//! instructions and cycles per mechanism.  An [`OverheadAttribution`]
//! ([`crate::diff_profile`] computes it) pairs those counts with the
//! right baseline so the attribution is *exact*:
//!
//! > baseline dynamic instructions + Σ per-mechanism instructions
//! > = protected dynamic instructions
//!
//! The subtlety is the baseline.  FERRUM runs the backend peephole
//! pass before protecting (the paper's "other compiler-level
//! transformations"), so the raw compile is the wrong reference — the
//! mechanism sum would be off by exactly the peephole savings.  The
//! baseline is therefore [`Pipeline::baseline`](crate::Pipeline::baseline):
//! the *peepholed* unprotected program whenever the pipeline's FERRUM
//! configuration peepholes.  The exact-sum identity holds because
//! protection only inserts instructions and never changes fault-free
//! control flow: checker branches fall through on a clean run, and
//! requisition stubs execute their relocated instructions exactly
//! once.

use ferrum_asm::provenance::Mechanism;
use ferrum_cpu::run::MechCounts;

/// Exact per-mechanism breakdown of FERRUM's dynamic overhead on one
/// workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverheadAttribution {
    /// Fault-free dynamic instructions of the peepholed unprotected
    /// program.
    pub baseline_dyn_insts: u64,
    /// Fault-free cycles of the peepholed unprotected program.
    pub baseline_cycles: u64,
    /// Fault-free dynamic instructions of the FERRUM-protected program.
    pub protected_dyn_insts: u64,
    /// Fault-free cycles of the FERRUM-protected program.
    pub protected_cycles: u64,
    /// Executed instructions and cycles per protection mechanism.
    pub mech: MechCounts,
}

impl OverheadAttribution {
    /// Dynamic protection instructions (the mechanism sum).
    pub fn protection_insts(&self) -> u64 {
        self.mech.total_insts()
    }

    /// Protection cycles (the mechanism sum).
    pub fn protection_cycles(&self) -> u64 {
        self.mech.total_cycles()
    }

    /// True when the per-mechanism counts account for the
    /// protected-minus-baseline delta *exactly*, in both instructions
    /// and cycles.  A `false` here means an emission site is missing
    /// its mechanism tag (or a pass rewrote baseline code).
    pub fn reconciles(&self) -> bool {
        self.baseline_dyn_insts + self.mech.total_insts() == self.protected_dyn_insts
            && self.baseline_cycles + self.mech.total_cycles() == self.protected_cycles
    }

    /// Cycle overhead of protection versus the baseline (0.30 = +30%).
    pub fn cycle_overhead(&self) -> f64 {
        if self.baseline_cycles == 0 {
            0.0
        } else {
            self.protected_cycles as f64 / self.baseline_cycles as f64 - 1.0
        }
    }

    /// Share of all protection cycles spent in mechanism `m`
    /// (0.0 when no protection cycles were executed).
    pub fn cycle_share(&self, m: Mechanism) -> f64 {
        let total = self.mech.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.mech.get(m).cycles as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{diff_profile, Pipeline, Technique};
    use ferrum_workloads::{workload, Scale};

    /// FERRUM's attribution on `name` under `pipeline`.
    fn attribution(pipeline: &Pipeline, name: &str) -> OverheadAttribution {
        let module = workload(name).expect("exists").build(Scale::Test);
        let baseline = pipeline.baseline(&module).expect("builds");
        let ferrum = pipeline.build(&module, Technique::Ferrum).expect("builds");
        diff_profile(&baseline, &ferrum)
            .expect("attributes")
            .attribution
    }

    #[test]
    fn attribution_reconciles_exactly_on_a_workload() {
        let att = attribution(&Pipeline::new(), "kmeans");
        assert!(att.protection_insts() > 0, "{att:?}");
        assert!(
            att.reconciles(),
            "mechanism sum {} + baseline {} != protected {} (cycles {} + {} vs {})",
            att.protection_insts(),
            att.baseline_dyn_insts,
            att.protected_dyn_insts,
            att.protection_cycles(),
            att.baseline_cycles,
            att.protected_cycles,
        );
        assert!(att.cycle_overhead() > 0.0);
        let share_sum: f64 = Mechanism::ALL.into_iter().map(|m| att.cycle_share(m)).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "shares sum to 1: {share_sum}"
        );
    }

    #[test]
    fn attribution_respects_pipeline_ablation_config() {
        use ferrum_eddi::FerrumConfig;
        // With SIMD off, batch mechanisms must not appear.
        let pipeline = Pipeline::new().with_ferrum_config(FerrumConfig {
            simd: false,
            ..FerrumConfig::default()
        });
        let att = attribution(&pipeline, "knn");
        assert!(att.reconciles(), "{att:?}");
        assert_eq!(att.mech.get(Mechanism::BatchCapture).insts, 0);
        assert_eq!(att.mech.get(Mechanism::BatchFlush).insts, 0);
        assert!(att.mech.get(Mechanism::Dup).insts > 0);
    }
}
