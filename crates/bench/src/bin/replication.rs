//! Deterministic checks of the replication engine, plus a trace
//! export. Nothing here is timed: the benchmark's `replication`
//! workload in `perfbench/` measures the engine's wall time.
//!
//! Usage:
//!   cargo run --release -p pbl-bench --bin replication -- --check
//!   cargo run --release -p pbl-bench --bin replication -- --scalar-check
//!   cargo run --release -p pbl-bench --bin replication -- --trace-out trace.json
//!
//! `--check` runs a 200-replicate batch across a 1/2/4/8 worker-thread
//! matrix through BOTH the scalar and the batched engine paths and
//! exits 1 unless the 1-thread scalar digest equals its committed
//! value and every other digest equals it — wired into CI as the
//! determinism smoke step.
//!
//! `--scalar-check` is the batched-vs-scalar oracle at several batch
//! shapes (replicate counts that do and do not divide the chunk size):
//! every batched digest must equal the scalar digest bit for bit.
//!
//! `--trace-out` runs a small batch and writes the chunk-lifecycle trace
//! read off its report as Chrome trace-event JSON.
//!
//! Any other arguments print a usage line and exit 2.

use pbl_core::replicate::{run_replication, run_replication_batched, ReplicationConfig};

/// The `--check` batch's 1-thread scalar digest, as committed. Every
/// other thread count and the batched path must equal it too.
const CHECK_DIGEST: u64 = 0xe218_7d25_568b_f175;

fn check_mode() -> ! {
    let cfg = ReplicationConfig {
        replicates: 200,
        threads: 1,
        permutations: 800,
        bootstrap_reps: 600,
        section_permutations: 400,
        ..ReplicationConfig::default()
    };
    let reference = run_replication(&cfg).digest();
    println!("replication --check: 1-thread scalar digest {reference:#018x}");
    let mut ok = true;
    if reference != CHECK_DIGEST {
        eprintln!(
            "PIN FAILURE: 1-thread scalar digest committed {CHECK_DIGEST:#018x}, \
             fresh {reference:#018x}"
        );
        ok = false;
    }
    for threads in [2, 4, 8] {
        let digest = run_replication(&ReplicationConfig {
            threads,
            ..cfg.clone()
        })
        .digest();
        println!("replication --check: {threads}-thread scalar digest  {digest:#018x}");
        if digest != reference {
            eprintln!("DETERMINISM FAILURE: {threads}-thread scalar digest differs from 1-thread");
            ok = false;
        }
    }
    for threads in [1, 2, 4, 8] {
        let digest = run_replication_batched(&ReplicationConfig {
            threads,
            ..cfg.clone()
        })
        .digest();
        println!("replication --check: {threads}-thread batched digest {digest:#018x}");
        if digest != reference {
            eprintln!(
                "DETERMINISM FAILURE: {threads}-thread batched digest differs from \
                 the 1-thread scalar reference"
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!(
        "replication --check: OK ({} replicates bit-identical across 1/2/4/8 \
         threads, scalar and batched paths)",
        cfg.replicates
    );
    std::process::exit(0);
}

/// `--scalar-check` mode: the batched engine's output must equal the
/// scalar engine's bit for bit at several batch shapes — replicate
/// counts that do and do not divide the chunk width, so partial tail
/// chunks and lane remainders are exercised.
fn scalar_check_mode() -> ! {
    let mut ok = true;
    for replicates in [1, 7, 16, 50, 93] {
        let cfg = ReplicationConfig {
            replicates,
            threads: 1,
            permutations: 400,
            bootstrap_reps: 300,
            section_permutations: 200,
            ..ReplicationConfig::default()
        };
        let scalar = run_replication(&cfg).digest();
        for threads in [1, 2, 4, 8] {
            let batched = run_replication_batched(&ReplicationConfig {
                threads,
                ..cfg.clone()
            })
            .digest();
            let verdict = if batched == scalar { "ok" } else { "MISMATCH" };
            println!(
                "replication --scalar-check: replicates={replicates:>3} threads={threads} \
                 scalar {scalar:#018x} batched {batched:#018x} {verdict}"
            );
            if batched != scalar {
                eprintln!(
                    "SCALAR-ORACLE FAILURE: batched digest differs at \
                     replicates={replicates} threads={threads}"
                );
                ok = false;
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!("replication --scalar-check: OK (batched path bit-identical to scalar oracle)");
    std::process::exit(0);
}

/// `--trace-out` mode: a small batch's chunk-lifecycle trace.
fn trace_mode(out: &str) -> ! {
    let cfg = ReplicationConfig {
        replicates: 100,
        threads: 4,
        ..ReplicationConfig::default()
    };
    let report = run_replication_batched(&cfg);
    let trace = report.trace(&obs::trace::TraceConfig::default());
    std::fs::write(out, trace.to_chrome_json()).unwrap_or_else(|e| {
        eprintln!("replication: cannot write {out}: {e}");
        std::process::exit(2);
    });
    println!(
        "replication trace: {} replicates, report digest 0x{:016x}, trace digest 0x{:016x} -> {out}",
        cfg.replicates,
        report.digest(),
        trace.digest()
    );
    std::process::exit(0);
}

fn usage() -> ! {
    eprintln!("usage: replication (--check | --scalar-check | --trace-out <path>)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["--check"] => check_mode(),
        ["--scalar-check"] => scalar_check_mode(),
        ["--trace-out", out] => trace_mode(out),
        _ => usage(),
    }
}
