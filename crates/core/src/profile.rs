//! Differential per-site overhead profiles.
//!
//! The per-mechanism attribution
//! ([`crate::attribution::OverheadAttribution`]) says *which
//! mechanism* FERRUM's overhead comes from; this module says *where*.  It diffs the golden profiles of a
//! [`Pipeline::baseline`](crate::Pipeline::baseline) and a protected
//! [`Build`], and uses the engines' exact per-pc profiles
//! ([`ferrum_cpu::run::Profile::pcs`]) to charge every executed
//! protection instruction to the **source site** it protects: the
//! nearest preceding IR-lowered instruction in the same function.
//!
//! Because every executed protection instruction has exactly one pc,
//! one [`Mechanism`], and one anchoring site, the per-site breakdown is
//! a *partition* of the per-mechanism totals — the exact-sum invariant
//! of PR 3 extended down to pc granularity:
//!
//! > Σ over sites of per-site mechanism counts
//! > = the profile's per-mechanism totals, per mechanism, exactly —
//! > in both executed instructions and cycles.
//!
//! [`DiffProfile::sites_reconcile`] checks that identity; a `false`
//! means the attribution dropped or double-counted a pc.

use std::collections::HashMap;

use ferrum_asm::provenance::{Mechanism, Provenance};
use ferrum_cpu::run::MechCounts;
use ferrum_cpu::{PcCount, PcProfile};
use ferrum_eddi::Technique;

use crate::attribution::OverheadAttribution;
use crate::{Build, Error};

/// Protection overhead charged to one source site.
///
/// A *site* is an IR-lowered anchor instruction in the protected image:
/// every protection instruction is charged to the nearest preceding
/// [`Provenance::FromIr`] pc within its function (protection emitted
/// before any IR instruction — prologue requisition glue, for example —
/// anchors to the function entry, `anchor_pc == None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteOverhead {
    /// Name of the function containing the site.
    pub func: String,
    /// Flat pc (in the protected image) of the anchoring IR-lowered
    /// instruction, or `None` for a function's pre-IR entry region.
    pub anchor_pc: Option<usize>,
    /// MIR instruction id of the anchor (`None` for the entry region).
    pub ir_index: Option<u32>,
    /// The site's own executed work in the protected run: everything
    /// charged between this anchor and the next that is *not*
    /// protection (IR-lowered, glue, synthetic).
    pub work: PcCount,
    /// Executed protection instructions and cycles charged to this
    /// site, per mechanism.
    pub mech: MechCounts,
}

impl SiteOverhead {
    /// Protection cycles charged to this site (all mechanisms).
    pub fn overhead_cycles(&self) -> u64 {
        self.mech.total_cycles()
    }

    /// Executed protection instructions charged to this site.
    pub fn overhead_insts(&self) -> u64 {
        self.mech.total_insts()
    }

    /// The mechanism contributing the most cycles at this site
    /// (`None` when the site accrued no protection cycles).
    pub fn dominant_mechanism(&self) -> Option<Mechanism> {
        self.mech
            .iter()
            .filter(|(_, c)| c.cycles > 0)
            .max_by_key(|&(_, c)| c.cycles)
            .map(|(m, _)| m)
    }

    /// Stable display label, e.g. `main@ir:17` or `main@entry`.
    pub fn label(&self) -> String {
        match self.ir_index {
            Some(i) => format!("{}@ir:{i}", self.func),
            None => format!("{}@entry", self.func),
        }
    }
}

/// A differential profile: a protected program diffed against its
/// peepholed unprotected baseline, with overhead cycles attributed to
/// individual source sites and mechanisms.
#[derive(Debug, Clone)]
pub struct DiffProfile {
    /// The protection technique that was diffed.
    pub technique: Technique,
    /// PR 3's whole-program per-mechanism attribution for the same
    /// baseline/protected pair (computed from the same two profiling
    /// runs — no re-execution).
    pub attribution: OverheadAttribution,
    /// Exact per-pc profile of the peepholed unprotected baseline.
    pub baseline_pcs: PcProfile,
    /// Exact per-pc profile of the protected program.
    pub protected_pcs: PcProfile,
    /// Per-site overhead, descending by protection cycles (ties broken
    /// by function name then anchor pc, for deterministic output).
    pub sites: Vec<SiteOverhead>,
}

impl DiffProfile {
    /// Per-mechanism totals re-summed from the per-site breakdown.
    pub fn site_mech_totals(&self) -> MechCounts {
        let mut t = MechCounts::default();
        for s in &self.sites {
            for (m, c) in s.mech.iter() {
                t.add_counts(m, c.insts, c.cycles);
            }
        }
        t
    }

    /// The pc-granular exact-sum invariant: summing every site's
    /// per-mechanism counts reproduces the whole-program mechanism
    /// totals exactly — per mechanism, in both instructions and cycles.
    pub fn sites_reconcile(&self) -> bool {
        self.site_mech_totals() == self.attribution.mech
    }

    /// The `n` sites with the most protection cycles.
    pub fn top_sites(&self, n: usize) -> &[SiteOverhead] {
        &self.sites[..n.min(self.sites.len())]
    }
}

/// Diffs `protected` against `baseline` (from
/// [`Pipeline::baseline`](crate::Pipeline::baseline) on the same
/// module and pipeline) and attributes every executed protection
/// instruction to its source site.  Both golden profiles are the
/// builds' own.
///
/// # Errors
///
/// When the two fault-free runs print different output — a protected
/// run cut short by the step limit, say — since their difference then
/// measures more than protection.
pub fn diff_profile(baseline: &Build, protected: &Build) -> Result<DiffProfile, Error> {
    let technique = protected.technique();
    let (base_profile, prot_profile) = (baseline.profile(), protected.profile());
    if base_profile.result.output != prot_profile.result.output {
        return Err(Error::msg(format!(
            "{technique}: protected output differs from the baseline's"
        )));
    }
    let image = protected.cpu().image();

    // Walk each function span in layout order, tracking the last
    // IR-lowered pc seen: that pc anchors every subsequent instruction
    // until the next IR-lowered one.  Executed counts fold into the
    // anchor's site — protection by mechanism, everything else as the
    // site's own work.
    let mut sites: Vec<SiteOverhead> = Vec::new();
    let mut slot_of: HashMap<(usize, Option<usize>), usize> = HashMap::new();
    for (fi, f) in image.funcs.iter().enumerate() {
        let mut anchor: Option<(usize, u32)> = None;
        for pc in f.start..f.end {
            let prov = image.insts[pc].prov;
            if let Provenance::FromIr(i) = prov {
                anchor = Some((pc, i));
            }
            let cnt = prot_profile.pcs.pcs[pc];
            if cnt.insts == 0 {
                continue;
            }
            let key = (fi, anchor.map(|(pc, _)| pc));
            let slot = *slot_of.entry(key).or_insert_with(|| {
                sites.push(SiteOverhead {
                    func: f.name.clone(),
                    anchor_pc: anchor.map(|(pc, _)| pc),
                    ir_index: anchor.map(|(_, i)| i),
                    work: PcCount::default(),
                    mech: MechCounts::default(),
                });
                sites.len() - 1
            });
            let site = &mut sites[slot];
            match prov.mechanism() {
                Some(m) => site.mech.add_counts(m, cnt.insts, cnt.cycles),
                None => {
                    site.work.insts += cnt.insts;
                    site.work.cycles += cnt.cycles;
                }
            }
        }
    }
    sites.sort_by(|a, b| {
        b.overhead_cycles()
            .cmp(&a.overhead_cycles())
            .then_with(|| a.func.cmp(&b.func))
            .then(a.anchor_pc.cmp(&b.anchor_pc))
    });

    Ok(DiffProfile {
        technique,
        attribution: OverheadAttribution {
            baseline_dyn_insts: base_profile.result.dyn_insts,
            baseline_cycles: base_profile.result.cycles,
            protected_dyn_insts: prot_profile.result.dyn_insts,
            protected_cycles: prot_profile.result.cycles,
            mech: prot_profile.mech_counts.clone(),
        },
        baseline_pcs: base_profile.pcs.clone(),
        protected_pcs: prot_profile.pcs.clone(),
        sites,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use ferrum_workloads::{workload, Scale};

    /// `name` at test scale under `technique`, diffed against its
    /// baseline.
    fn diff(pipeline: &Pipeline, name: &str, technique: Technique) -> Result<DiffProfile, Error> {
        let module = workload(name).expect("exists").build(Scale::Test);
        diff_profile(
            &pipeline.baseline(&module)?,
            &pipeline.build(&module, technique)?,
        )
    }

    #[test]
    fn per_site_sums_equal_mechanism_totals_exactly() {
        let d = diff(&Pipeline::new(), "needle", Technique::Ferrum).expect("diffs");
        assert!(!d.sites.is_empty());
        assert!(d.attribution.reconciles(), "{:?}", d.attribution);
        assert!(
            d.sites_reconcile(),
            "site totals {:?} != mechanism totals {:?}",
            d.site_mech_totals(),
            d.attribution.mech
        );
        // Work + overhead over all sites covers the protected run
        // exactly: the site partition loses nothing.
        let work: u64 = d.sites.iter().map(|s| s.work.cycles).sum();
        let prot: u64 = d.sites.iter().map(|s| s.overhead_cycles()).sum();
        assert_eq!(work + prot, d.attribution.protected_cycles);
        let work_i: u64 = d.sites.iter().map(|s| s.work.insts).sum();
        let prot_i: u64 = d.sites.iter().map(|s| s.overhead_insts()).sum();
        assert_eq!(work_i + prot_i, d.attribution.protected_dyn_insts);
    }

    #[test]
    fn sites_reconcile_for_every_technique() {
        let pipeline = Pipeline::new();
        let module = workload("pathfinder").expect("exists").build(Scale::Test);
        let baseline = pipeline.baseline(&module).expect("builds");
        for t in [
            Technique::None,
            Technique::IrEddi,
            Technique::HybridAsmEddi,
            Technique::Ferrum,
        ] {
            let build = pipeline.build(&module, t).expect("builds");
            let d = diff_profile(&baseline, &build).expect("diffs");
            assert_eq!(d.technique, t);
            assert!(d.sites_reconcile(), "{t}");
            if t == Technique::None {
                assert_eq!(d.attribution.mech.total_insts(), 0, "{t}");
            } else {
                assert!(d.attribution.mech.total_insts() > 0, "{t}");
            }
        }
    }

    #[test]
    fn sites_are_sorted_by_overhead_and_labelled() {
        let d = diff(&Pipeline::new(), "kmeans", Technique::Ferrum).expect("diffs");
        for w in d.sites.windows(2) {
            assert!(w[0].overhead_cycles() >= w[1].overhead_cycles());
        }
        let top = d.top_sites(3);
        assert!(top.len() <= 3 && !top.is_empty());
        assert!(top[0].overhead_cycles() > 0);
        assert!(top[0].dominant_mechanism().is_some());
        assert!(top[0].label().contains('@'));
    }

    #[test]
    fn a_protected_run_cut_short_by_the_step_limit_is_an_error() {
        // Enough steps for the raw kernel, too few for any protected
        // build of it: the protected run times out before it prints.
        let module = workload("kmeans").expect("exists").build(Scale::Test);
        let raw = Pipeline::new()
            .build(&module, Technique::None)
            .expect("builds");
        let raw_dyn = raw.profile().result.dyn_insts;
        let pipeline = Pipeline::new().with_step_limit(raw_dyn + 10);
        let err = diff(&pipeline, "kmeans", Technique::Ferrum).expect_err("outputs differ");
        assert_eq!(
            err.to_string(),
            "FERRUM: protected output differs from the baseline's"
        );
    }
}
