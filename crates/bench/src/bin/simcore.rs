//! Exports the canonical four-layer demo trace
//! (`pbl_core::experiments::demo_trace`) as Chrome trace-event JSON,
//! loadable in Perfetto, and prints its FNV-1a digest. Every timestamp
//! in it is virtual, so the file is byte-identical across hosts, runs
//! and thread counts; `tests/trace_golden.rs` pins the digest at
//! 1/2/4/8 threads against `tests/golden/simcore_trace.digest`.
//!
//! Usage:
//!   cargo run --release -p pbl-bench --bin simcore -- --trace-out trace.json
//!
//! Exits 1 if the trace breaks the attribution identity, and 2 on a
//! usage error or an unwritable path.

fn usage() -> ! {
    eprintln!("usage: simcore --trace-out <path>");
    std::process::exit(2);
}

fn trace_mode(out: &str) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let trace = pbl_core::experiments::demo_trace(threads);
    std::fs::write(out, trace.to_chrome_json()).unwrap_or_else(|e| {
        eprintln!("simcore: cannot write {out}: {e}");
        std::process::exit(2);
    });
    let analysis = obs::trace::analyze::analyze(&trace);
    println!(
        "simcore trace: {} events, {} lanes, digest 0x{:016x} -> {out}",
        analysis.events,
        analysis.lanes.len(),
        trace.digest()
    );
    if !analysis.attribution_is_exact() {
        eprintln!("simcore trace: attribution identity violated");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["--trace-out", out] => trace_mode(out),
        _ => usage(),
    }
}
