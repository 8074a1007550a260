//! Captures the before/after wall-clock numbers for the replication
//! engine into `BENCH_replication.json`, and doubles as the CI
//! determinism smoke check (`--check`) and scalar-oracle smoke
//! (`--scalar-check`).
//!
//! "Before" for the current headline scenarios is the committed scalar
//! engine itself: the chunked work-queue engine running the original
//! per-replicate kernels, whose 1000-replicate wall-clock was frozen
//! into this file when it was the "after". "After" is
//! `pbl_core::replicate::run_replication_batched` — the same battery
//! through the batch-major path: whole chunks of cohorts resampled in
//! lockstep through the SoA kernels (AVX-512/AVX2 bit-mask sign-flips,
//! packed-draw gather bootstrap, lane-uniform two-sample shuffles) with
//! one reused scratch arena per worker. Before recording anything the
//! binary asserts:
//!
//! 1. the batched engine is bit-identical to the scalar engine
//!    (`ReplicationReport::digest`) and across 1/4 threads, and
//! 2. the parametric results (t, p, Cohen's d) of the serial baseline
//!    match the batched engine's bit for bit — both are pure functions
//!    of the same seed-split cohorts, so any drift is a determinism bug.
//!
//! The superseded scalar-engine scenarios remain in the document as
//! frozen entries carrying a `"superseded_by"` pointer at their batched
//! successors, so `bench_gate` keeps an explicit allowlisted rename
//! trail instead of silently accepting vanished scenarios.
//!
//! Usage:
//!   cargo run --release -p pbl-bench --bin replication [out.json]
//!   cargo run --release -p pbl-bench --bin replication -- --check
//!   cargo run --release -p pbl-bench --bin replication -- --scalar-check
//!   cargo run --release -p pbl-bench --bin replication -- --trace-out trace.json
//!
//! `--check` runs a small batch across a 1/2/4/8 worker-thread matrix
//! through BOTH the scalar and the batched engine paths and exits
//! non-zero if any digest differs from the 1-thread scalar reference —
//! wired into CI as the determinism smoke step.
//!
//! `--scalar-check` is the batched-vs-scalar oracle at several batch
//! shapes (replicate counts that do and do not divide the chunk size):
//! every batched digest must equal the scalar digest bit for bit.
//!
//! `--trace-out` runs a small batch and writes the chunk-lifecycle trace
//! read off its report as Chrome trace-event JSON.

use std::time::Instant;

use classroom::response::Category;
use classroom::{CohortData, StudyConfig};
use pbl_core::replicate::{
    run_replication, run_replication_batched, ReplicationConfig, ReplicationReport,
};
use stats::resample::{bootstrap_ci, permutation_test_paired, permutation_test_two_sample};
use stats::StreamSeeder;

/// Wall-clock repetitions per measurement; the minimum is recorded.
const REPS: usize = 3;

/// Committed 1000-replicate wall-clock of the scalar chunked engine —
/// the "before" for the batched scenarios, frozen from the run that
/// produced the superseded `batch_1000_engine_*` entries.
const SCALAR_ENGINE_1T_MS: f64 = 1926.395;
/// Committed scalar-engine wall-clock at 4 worker threads.
const SCALAR_ENGINE_4T_MS: f64 = 1916.759;
/// Committed serial-baseline wall-clock (pre-engine kernels), kept for
/// the frozen superseded entries.
const SERIAL_BASELINE_MS: f64 = 8044.190;

fn time_min_ms<T, F: FnMut() -> T>(mut f: F) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let start = Instant::now();
        out = Some(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, out.unwrap())
}

fn mean_diff(d: &[f64]) -> f64 {
    d.iter().sum::<f64>() / d.len() as f64
}

/// One replicate the way the pre-engine codebase would run it: serial
/// kernels, one study at a time. Returns the parametric fields for the
/// bit-identity cross-check against the engine.
fn serial_replicate(cfg: &ReplicationConfig, seed: u64) -> [f64; 6] {
    let cohort = CohortData::generate(&StudyConfig {
        num_students: cfg.num_students,
        seed,
    });
    let e1 = cohort.student_scores(Category::ClassEmphasis, 1);
    let e2 = cohort.student_scores(Category::ClassEmphasis, 2);
    let g1 = cohort.student_scores(Category::PersonalGrowth, 1);
    let g2 = cohort.student_scores(Category::PersonalGrowth, 2);
    let streams = StreamSeeder::new(seed);

    let _ = permutation_test_paired(&e1, &e2, cfg.permutations, streams.split_seed(1)).unwrap();
    let _ = permutation_test_paired(&g1, &g2, cfg.permutations, streams.split_seed(2)).unwrap();
    let ediffs: Vec<f64> = e2.iter().zip(&e1).map(|(s, f)| s - f).collect();
    let gdiffs: Vec<f64> = g2.iter().zip(&g1).map(|(s, f)| s - f).collect();
    let _ = bootstrap_ci(
        &ediffs,
        mean_diff,
        0.95,
        cfg.bootstrap_reps,
        streams.split_seed(3),
    );
    let _ = bootstrap_ci(
        &gdiffs,
        mean_diff,
        0.95,
        cfg.bootstrap_reps,
        streams.split_seed(4),
    );
    let (sec_a, sec_b): (Vec<f64>, Vec<f64>) = {
        let half = e2.len() / 2;
        let a = cohort
            .students
            .iter()
            .filter(|s| s.section == 0)
            .map(|s| e2[s.id])
            .collect::<Vec<_>>();
        if a.len() >= 2 && a.len() + 2 <= e2.len() {
            let b = cohort
                .students
                .iter()
                .filter(|s| s.section == 1)
                .map(|s| e2[s.id])
                .collect();
            (a, b)
        } else {
            (e2[..half].to_vec(), e2[half..].to_vec())
        }
    };
    let _ = permutation_test_two_sample(
        &sec_a,
        &sec_b,
        cfg.section_permutations,
        streams.split_seed(5),
    )
    .unwrap();

    let t_e = stats::t_test_paired(&e1, &e2).unwrap();
    let t_g = stats::t_test_paired(&g1, &g2).unwrap();
    let d_e = stats::cohen_d_independent(&e1, &e2).unwrap();
    let d_g = stats::cohen_d_independent(&g1, &g2).unwrap();
    [t_e.t, t_e.p_two_sided, t_g.t, t_g.p_two_sided, d_e.d, d_g.d]
}

fn serial_batch(cfg: &ReplicationConfig) -> Vec<[f64; 6]> {
    let streams = StreamSeeder::new(cfg.master_seed);
    (0..cfg.replicates)
        .map(|i| serial_replicate(cfg, streams.split_seed(i as u64)))
        .collect()
}

/// Asserts that the serial baseline and the engine computed the same
/// parametric statistics on every replicate, bit for bit.
fn assert_parametrics_match(baseline: &[[f64; 6]], engine: &ReplicationReport) {
    assert_eq!(baseline.len(), engine.summaries.len());
    for (b, s) in baseline.iter().zip(&engine.summaries) {
        let e = [
            s.emphasis_ttest.t,
            s.emphasis_ttest.p_two_sided,
            s.growth_ttest.t,
            s.growth_ttest.p_two_sided,
            s.emphasis_d.d,
            s.growth_d.d,
        ];
        for (x, y) in b.iter().zip(&e) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "determinism violated: serial baseline and engine disagree \
                 on replicate {}",
                s.index
            );
        }
    }
}

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

struct Scenario {
    name: &'static str,
    threads: usize,
    before: &'static str,
    after: &'static str,
    before_ms: f64,
    after_ms: f64,
    superseded_by: Option<&'static str>,
    frozen: bool,
}

fn json(
    cfg: &ReplicationConfig,
    scenarios: &[Scenario],
    digest: u64,
    report: &ReplicationReport,
    metrics_json: &str,
) -> String {
    let host_cores = pbl_bench::host_cores();
    let max_threads = scenarios.iter().map(|s| s.threads).max().unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"replication\",\n");
    out.push_str(
        "  \"description\": \"Wall-clock before/after for the batch-major replication engine: N independent study replicates (cohort generation + permutation tests + bootstrap CIs + section shuffle) through the scalar chunked engine (committed numbers, frozen in the superseded scenarios) vs the batch-major path — whole chunks of cohorts resampled in lockstep through SoA kernels (bit-mask sign-flips, packed-draw gather bootstrap, lane-uniform two-sample shuffles) with one reused scratch arena per worker. The batched digest is asserted bit-identical to the scalar engine at 1 and 4 threads, and parametric statistics are asserted bit-identical to the serial baseline, before recording.\",\n",
    );
    out.push_str("  \"command\": \"cargo run --release -p pbl-bench --bin replication\",\n");
    out.push_str(&format!("  \"reps_per_measurement\": {REPS},\n"));
    out.push_str("  \"timer\": \"std::time::Instant, minimum of reps, milliseconds\",\n");
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!(
        "  \"note\": \"{}\",\n",
        pbl_bench::scaling_note(host_cores, max_threads)
    ));
    out.push_str("  \"batch\": {\n");
    out.push_str(&format!("    \"replicates\": {},\n", cfg.replicates));
    out.push_str(&format!(
        "    \"students_per_cohort\": {},\n",
        cfg.num_students
    ));
    out.push_str(&format!("    \"master_seed\": {},\n", cfg.master_seed));
    out.push_str(&format!("    \"permutations\": {},\n", cfg.permutations));
    out.push_str(&format!(
        "    \"bootstrap_reps\": {},\n",
        cfg.bootstrap_reps
    ));
    out.push_str(&format!(
        "    \"section_permutations\": {}\n",
        cfg.section_permutations
    ));
    out.push_str("  },\n");
    out.push_str("  \"scenarios\": [\n");
    for (i, sc) in scenarios.iter().enumerate() {
        let last = i + 1 == scenarios.len();
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", sc.name));
        if let Some(successor) = sc.superseded_by {
            out.push_str(&format!("      \"superseded_by\": \"{successor}\",\n"));
        }
        if sc.frozen {
            out.push_str(
                "      \"status\": \"superseded: numbers frozen from the committed run that measured them\",\n",
            );
        }
        out.push_str("      \"crate\": \"pbl-core + replicate + stats\",\n");
        out.push_str(&format!("      \"threads\": {},\n", sc.threads));
        out.push_str(&format!("      \"before\": \"{}\",\n", sc.before));
        out.push_str(&format!("      \"after\": \"{}\",\n", sc.after));
        out.push_str(&format!("      \"before_ms\": {:.3},\n", sc.before_ms));
        out.push_str(&format!("      \"after_ms\": {:.3},\n", sc.after_ms));
        out.push_str(&format!(
            "      \"speedup\": {:.1},\n",
            sc.before_ms / sc.after_ms
        ));
        out.push_str("      \"outputs_bit_identical\": true\n");
        out.push_str(if last { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"engine_digest\": \"{digest:#018x}\",\n"));
    out.push_str("  \"batch_conclusions\": {\n");
    out.push_str(&format!(
        "    \"growth_significant_fraction\": {:.4},\n",
        report.growth_significant_fraction()
    ));
    out.push_str(&format!(
        "    \"emphasis_significant_fraction\": {:.4},\n",
        report.emphasis_significant_fraction()
    ));
    out.push_str(&format!(
        "    \"growth_effect_larger_fraction\": {:.4},\n",
        report.growth_effect_larger_fraction()
    ));
    out.push_str(&format!(
        "    \"permutation_agreement_fraction\": {:.4},\n",
        report.permutation_agreement_fraction()
    ));
    out.push_str(&format!(
        "    \"section_flag_fraction\": {:.4},\n",
        report.section_flag_fraction()
    ));
    out.push_str(&format!(
        "    \"mean_growth_d\": {:.4}\n",
        report.mean_growth_d()
    ));
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"metrics\": {}\n",
        pbl_bench::embed_json(metrics_json, 2)
    ));
    out.push_str("}\n");
    out
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

fn main() {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--check") {
        check_mode();
    }
    if arg.as_deref() == Some("--scalar-check") {
        scalar_check_mode();
    }
    if arg.as_deref() == Some("--trace-out") {
        let out = std::env::args().nth(2).unwrap_or_else(|| {
            eprintln!("replication: --trace-out needs a path");
            std::process::exit(2);
        });
        trace_mode(&out);
    }
    let out_path = arg.unwrap_or_else(|| "BENCH_replication.json".to_string());

    let cfg = ReplicationConfig {
        replicates: 1_000,
        threads: 1,
        ..ReplicationConfig::default()
    };

    println!(
        "replication batch: {} replicates x ({} students, {}+{} permutations, {} bootstrap reps x2)",
        cfg.replicates, cfg.num_students, cfg.permutations, cfg.section_permutations, cfg.bootstrap_reps
    );

    // Scalar-engine reference run (untimed — its wall-clock is the
    // frozen committed number) and the serial parametric oracle.
    let scalar = run_replication(&cfg);
    println!("scalar engine digest: {:#018x}", scalar.digest());
    let baseline = serial_batch(&cfg);

    let (batched1_ms, batched1) = time_min_ms(|| run_replication_batched(&cfg));
    println!("batched engine, 1 thread:  {batched1_ms:>9.1} ms");

    let cfg4 = ReplicationConfig {
        threads: 4,
        ..cfg.clone()
    };
    let (batched4_ms, batched4) = time_min_ms(|| run_replication_batched(&cfg4));
    println!("batched engine, 4 threads: {batched4_ms:>9.1} ms");

    // Determinism gates — nothing is recorded unless these hold.
    assert_eq!(
        scalar.digest(),
        batched1.digest(),
        "determinism violated: batched digest differs from the scalar engine"
    );
    assert_eq!(
        batched1.digest(),
        batched4.digest(),
        "determinism violated: batched digests differ across thread counts"
    );
    assert_parametrics_match(&baseline, &batched4);

    // The embedded metrics section, read off the 4-thread report.
    let registry = obs::Registry::new();
    batched4.record_metrics(&registry);
    let metrics_json = registry.snapshot().to_json_with_digest();

    let speedup1 = SCALAR_ENGINE_1T_MS / batched1_ms;
    let speedup4 = SCALAR_ENGINE_4T_MS / batched4_ms;
    println!(
        "speedup vs committed scalar engine: {speedup1:.1}x @1t, {speedup4:.1}x @4t  \
         (digest {:#018x})",
        batched4.digest()
    );
    for (threads, speedup) in [(1, speedup1), (4, speedup4)] {
        assert!(
            speedup >= 3.0,
            "performance gate: expected >= 3x over the committed scalar engine \
             at {threads} thread(s), measured {speedup:.2}x"
        );
    }

    const SCALAR_BEFORE: &str = "serial loop, original kernels (per-draw permutation sign-flips, full shuffles, one bootstrap index per RNG word)";
    const SCALAR_AFTER: &str = "replication engine (chunked crossbeam work queue, seed-split streams, bit-mask sign-flip / partial Fisher-Yates / packed bootstrap kernels)";
    const BATCH_BEFORE: &str = "scalar chunked engine, committed wall-clock (per-replicate kernels through the crossbeam work queue)";
    const BATCH_AFTER: &str = "batch-major engine (run_chunked cohort batches, SoA lockstep kernels: AVX-512/AVX2 sign-flip, packed-draw gather bootstrap, lane-uniform two-sample, reused scratch arena)";
    let scenarios = [
        Scenario {
            name: "replication/batch_1000_engine_1_thread",
            threads: 1,
            before: SCALAR_BEFORE,
            after: SCALAR_AFTER,
            before_ms: SERIAL_BASELINE_MS,
            after_ms: SCALAR_ENGINE_1T_MS,
            superseded_by: Some("replication/batch_1000_batched_1_thread"),
            frozen: true,
        },
        Scenario {
            name: "replication/batch_1000_engine_4_threads",
            threads: 4,
            before: SCALAR_BEFORE,
            after: SCALAR_AFTER,
            before_ms: SERIAL_BASELINE_MS,
            after_ms: SCALAR_ENGINE_4T_MS,
            superseded_by: Some("replication/batch_1000_batched_4_threads"),
            frozen: true,
        },
        Scenario {
            name: "replication/batch_1000_batched_1_thread",
            threads: 1,
            before: BATCH_BEFORE,
            after: BATCH_AFTER,
            before_ms: SCALAR_ENGINE_1T_MS,
            after_ms: batched1_ms,
            superseded_by: None,
            frozen: false,
        },
        Scenario {
            name: "replication/batch_1000_batched_4_threads",
            threads: 4,
            before: BATCH_BEFORE,
            after: BATCH_AFTER,
            before_ms: SCALAR_ENGINE_4T_MS,
            after_ms: batched4_ms,
            superseded_by: None,
            frozen: false,
        },
    ];

    std::fs::write(
        &out_path,
        json(
            &cfg,
            &scenarios,
            batched4.digest(),
            &batched4,
            &metrics_json,
        ),
    )
    .expect("write BENCH_replication.json");
    println!("wrote {out_path}");
}
