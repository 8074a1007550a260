//! Golden-snapshot integration test: the end-to-end observability
//! layer exports byte-identical `MetricsSnapshot` JSON across repeated
//! runs and across replication thread counts — the cross-crate
//! statement of the observability determinism invariant in DESIGN.md.

use parallel_rt::sim::{simulate_parallel_loop_with_metrics, CostModel, SimOptions};
use parallel_rt::Schedule;
use pbl_core::experiments::metrics_snapshot;

#[test]
fn metrics_snapshot_json_is_golden_across_runs_and_thread_counts() {
    let golden = metrics_snapshot(1).to_json();
    for threads in [1, 2, 4, 8] {
        let snap = metrics_snapshot(threads);
        assert_eq!(golden, snap.to_json(), "threads = {threads}");
        assert_eq!(
            snap.digest(),
            metrics_snapshot(threads).digest(),
            "rerun at threads = {threads}"
        );
    }
    // The golden export speaks the stable schema and covers every
    // instrumented layer.
    assert!(golden.starts_with("{\n  \"schema\": \"pbl-obs/v1\""));
    for layer in ["pi_sim/", "parallel_rt/", "mapreduce/", "replicate/"] {
        assert!(golden.contains(layer), "missing {layer} metrics");
    }
    // Nothing wall-domain leaks into the deterministic export.
    assert!(!golden.contains("\"domain\": \"wall\""));
}

/// The observation bytes as committed: the `metrics` artefact's
/// snapshot and the loop metrics `simcore` embeds in
/// `BENCH_simcore.json`. Any change to what an engine records, or to
/// the order it registers metrics in, moves one of these digests.
#[test]
fn metrics_digests_match_the_committed_values() {
    assert_eq!(metrics_snapshot(1).digest(), 0x2827_3c95_fd1e_62e4);

    let registry = obs::Registry::new();
    let _ = simulate_parallel_loop_with_metrics(
        100_000,
        &CostModel::Uniform(40),
        Schedule::Guided(64),
        4,
        &SimOptions::default(),
        &registry,
    );
    assert_eq!(registry.snapshot().digest(), 0xe54b_4fe1_9766_5836);
}
