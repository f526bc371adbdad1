//! Tracing is observational by contract: campaign results must be
//! byte-identical whether a recording sink, a no-op sink, or no sink at
//! all is installed — with or without the `trace` cargo feature.  Every
//! test that touches the process-wide sink holds [`SINK_LOCK`] so the
//! install/uninstall sequences cannot interleave.

use std::sync::{Arc, Mutex};

/// Serializes global-sink manipulation across tests in this binary.
static SINK_LOCK: Mutex<()> = Mutex::new(());

use ferrum::{Campaign, CampaignConfig, CampaignResult, Pipeline, SnapshotPolicy, Technique};
use ferrum_trace::{NullSink, RingSink};
use ferrum_workloads::{workload, Scale};

#[test]
fn campaigns_are_identical_with_and_without_trace_sinks() {
    let _guard = SINK_LOCK.lock().expect("sink lock");
    let pipeline = Pipeline::new();
    let module = workload("bfs").expect("exists").build(Scale::Test);
    let prog = pipeline.protect(&module, Technique::Ferrum).expect("protects");
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    let cfg = CampaignConfig {
        samples: 200,
        seed: 31,
    };
    let run_both = || -> (CampaignResult, CampaignResult) {
        (
            Campaign::sampled(cfg).run(&cpu, &profile).unwrap(),
            Campaign::sampled(cfg)
                .threads(4)
                .snapshots(SnapshotPolicy::default())
                .run(&cpu, &profile)
                .unwrap(),
        )
    };

    // Reference: no sink installed.
    assert!(!ferrum_trace::enabled());
    let (serial_ref, snap_ref) = run_both();
    assert_eq!(serial_ref, snap_ref);

    // Recording sink installed.
    let ring = Arc::new(RingSink::new(8192));
    ferrum_trace::install(ring.clone());
    let (serial_ring, snap_ring) = run_both();

    // No-op sink installed.
    ferrum_trace::install(Arc::new(NullSink));
    let (serial_null, snap_null) = run_both();
    ferrum_trace::uninstall();
    assert!(!ferrum_trace::enabled());

    for (label, got) in [
        ("serial+ring", &serial_ring),
        ("serial+null", &serial_null),
    ] {
        assert_eq!(got, &serial_ref, "{label}: outcomes diverged");
        assert_eq!(
            got.records, serial_ref.records,
            "{label}: record stream diverged"
        );
        assert_eq!(
            got.stats.latency, serial_ref.stats.latency,
            "{label}: latency distribution diverged"
        );
    }
    for (label, got) in [("snap+ring", &snap_ring), ("snap+null", &snap_null)] {
        assert_eq!(got, &snap_ref, "{label}: outcomes diverged");
        assert_eq!(
            got.stats.latency, snap_ref.stats.latency,
            "{label}: latency distribution diverged"
        );
    }

    // With the feature compiled in, the ring must actually have seen
    // the campaign probes; without it, installing was a no-op.
    if cfg!(feature = "trace") {
        assert!(ring.counter_total("campaign.injections") >= 400);
        assert_eq!(ring.span_count("campaign.run"), 2);
        assert!(ring.span_nanos("campaign.run") > 0);
    } else {
        assert!(ring.events().is_empty());
    }
}

#[test]
fn differential_profiling_is_identical_with_and_without_trace_sinks() {
    let _guard = SINK_LOCK.lock().expect("sink lock");
    let pipeline = Pipeline::new();
    let module = workload("needle").expect("exists").build(Scale::Test);

    // Reference: no sink installed.
    assert!(!ferrum_trace::enabled());
    let bare = ferrum::diff_profile(&pipeline, &module, Technique::Ferrum).expect("profiles");
    assert!(bare.sites_reconcile());

    // Recording sink installed: result byte-identical, and with the
    // feature compiled in the profiler's span fired exactly once.
    let ring = Arc::new(RingSink::new(8192));
    ferrum_trace::install(ring.clone());
    let traced = ferrum::diff_profile(&pipeline, &module, Technique::Ferrum).expect("profiles");
    ferrum_trace::uninstall();

    assert_eq!(traced.sites, bare.sites, "per-site attribution diverged");
    assert_eq!(traced.baseline_pcs, bare.baseline_pcs, "baseline profile diverged");
    assert_eq!(traced.protected_pcs, bare.protected_pcs, "protected profile diverged");
    if cfg!(feature = "trace") {
        assert_eq!(ring.span_count("diff-profile"), 1);
        assert!(ring.span_nanos("diff-profile") > 0);
    } else {
        assert!(ring.events().is_empty());
    }
}
