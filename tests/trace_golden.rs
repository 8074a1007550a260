//! Golden-trace integration tests: the end-to-end tracing layer
//! exports byte-identical Chrome trace-event JSON across repeated runs
//! and across thread counts, and ring-buffer overflow degrades to
//! counted drops without disturbing merge order — the cross-crate
//! statement of the trace-determinism invariant in DESIGN.md.

use obs::trace::{analyze, category, Trace, TraceBuffer};
use pbl_core::experiments::demo_trace;

/// The canonical four-layer trace is a pure function of the workload:
/// repeated runs and every thread count in 1/2/4/8 produce the same
/// bytes, and the FNV-1a digest matches the committed golden that CI's
/// trace smoke step gates on (`tests/golden/simcore_trace.digest`).
#[test]
fn demo_trace_chrome_json_is_golden_across_runs_and_thread_counts() {
    let golden = demo_trace(1).to_chrome_json();
    for threads in [1, 2, 4, 8] {
        let trace = demo_trace(threads);
        assert_eq!(golden, trace.to_chrome_json(), "threads = {threads}");
        assert_eq!(
            trace.digest(),
            demo_trace(threads).digest(),
            "rerun at threads = {threads}"
        );
    }

    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/simcore_trace.digest"
    ))
    .expect("committed golden digest");
    assert_eq!(
        committed.trim(),
        format!("0x{:016x}", demo_trace(1).digest()),
        "the demo trace drifted from tests/golden/simcore_trace.digest; \
         if the change is intentional, regenerate with \
         `simcore --trace-out` and commit the new digest"
    );
}

/// The analyzer's attribution identity holds on the merged four-layer
/// trace: per lane, category cycles + idle sum exactly to the lane's
/// process-group makespan.
#[test]
fn demo_trace_attribution_sums_to_the_makespan_per_lane() {
    let trace = demo_trace(2);
    let analysis = analyze::analyze(&trace);
    assert!(analysis.attribution_is_exact());
    assert!(analysis.critical_cycles > 0);
    assert!(analysis.critical_cycles <= analysis.makespan);
    for lane in &analysis.lanes {
        assert_eq!(
            lane.attributed() + lane.idle,
            lane.makespan,
            "lane {} attribution leak",
            lane.name
        );
    }
}

/// Overfilling a bounded lane drops the newest events, counts every
/// drop, and leaves the surviving prefix in stable merge order.
#[test]
fn ring_buffer_overflow_counts_drops_and_merge_order_is_stable() {
    let mut full = TraceBuffer::new(0, "full", 4);
    let mut other = TraceBuffer::new(1, "other", 64);
    for i in 0..10 {
        full.instant(i, format!("e{i}"), category::CHUNK, i);
        other.instant(i, format!("o{i}"), category::CHUNK, i);
    }
    assert_eq!(full.len(), 4);
    assert_eq!(full.dropped(), 6);
    assert_eq!(other.dropped(), 0);

    let trace = Trace::from_buffers(vec![full, other]);
    assert_eq!(trace.dropped, 6);
    // Interleaved by (time, lane, seq): the full lane's survivors sort
    // at times 0..4 ahead of the other lane's events at equal times.
    let times: Vec<(u64, u32)> = trace.events.iter().map(|e| (e.time, e.lane)).collect();
    let mut expect = Vec::new();
    for t in 0..10u64 {
        if t < 4 {
            expect.push((t, 0));
        }
        expect.push((t, 1));
    }
    assert_eq!(times, expect);
    // The drop count is part of the export (and therefore the digest).
    assert!(trace.to_chrome_json().contains("\"dropped\": 6"));
}
