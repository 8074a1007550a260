//! Deterministic checks of the `pbl-serve` sharded cluster, plus
//! trace and telemetry exports. Nothing here is timed: the benchmark's
//! `semester_warm` and `semester_thrash` workloads in `perfbench/`
//! measure the cluster's wall time.
//!
//! Usage:
//!   cargo run --release -p pbl-bench --bin serve -- --check
//!   cargo run --release -p pbl-bench --bin serve -- --trace-out trace.json
//!   cargo run --release -p pbl-bench --bin serve -- --series-out series.json
//!
//! `--check` replays the synthetic course week on a one-shard cluster
//! across a 1/2/4/8 worker matrix and the smoke semester (with
//! telemetry attached) across a (shards × workers) = {1,2,4} × {1,4}
//! cluster matrix, exiting non-zero if any full digest varies with
//! worker count, or the semantic digest or invariant telemetry digest
//! varies at all. It then serves the full semester at 1/2/4/8 shards ×
//! 4 workers and exits non-zero unless every cell's digests, accepted,
//! computed and saved counts and p99 sojourn equal the committed pins
//! — wired into CI as the serve determinism smoke step. `--trace-out`
//! writes Monday's scheduler trace on one shard × 4 workers, and
//! `--series-out` writes the clean smoke semester's `"pbl-ts/v1"`
//! series JSON for artifact upload.
//!
//! Any other arguments print a usage line and exit 2.

use serve::cluster::{self, Cluster, ClusterConfig};
use serve::telemetry;
use serve::workload::{course_week, SemesterConfig};

/// Serves the whole week on a fresh one-shard cluster, returning the
/// chained FNV-1a digest of every day's report plus the final cache
/// state — the one number the determinism matrix compares.
fn week_digest(workers: usize) -> u64 {
    let cluster = Cluster::new(ClusterConfig::with_shards(1, workers));
    let mut bytes = Vec::new();
    for day in course_week() {
        bytes.extend(cluster.run_day(&day).digest().to_le_bytes());
    }
    bytes.extend(cluster.state_digest().to_le_bytes());
    obs::trace::fnv1a(&bytes)
}

fn check_mode() -> ! {
    let reference = week_digest(1);
    println!("serve --check: 1-worker week digest {reference:#018x}");
    let mut ok = true;
    for workers in [2, 4, 8] {
        let digest = week_digest(workers);
        println!("serve --check: {workers}-worker week digest {digest:#018x}");
        if digest != reference {
            eprintln!("DETERMINISM FAILURE: {workers}-worker digest differs from 1-worker");
            ok = false;
        }
    }

    // The cluster matrix: the smoke semester across (shards × workers)
    // = {1,2,4} × {1,4}, served with telemetry attached. Within a
    // shard count the full semester digest and the full telemetry
    // digest must be worker-invariant; the semantic digest and the
    // invariant telemetry digest must each be one value across every
    // cell; and the observed run's digests must equal a bare run's
    // (the observer-effect invariant).
    let cfg = SemesterConfig::smoke();
    let mut semantic: Option<u64> = None;
    let mut invariant_ts: Option<u64> = None;
    for shards in [1u32, 2, 4] {
        let mut full: Option<u64> = None;
        let mut full_ts: Option<u64> = None;
        for workers in [1usize, 4] {
            let cc = ClusterConfig::with_shards(shards, workers);
            let bare = cluster::run_semester(&Cluster::new(cc.clone()), &cfg);
            let (report, series) = telemetry::run_semester_observed(&Cluster::new(cc), &cfg);
            let ts_full = series.digest();
            let ts_inv = series.invariant_digest();
            println!(
                "serve --check: semester {shards}x{workers} full {:#018x} semantic {:#018x} \
                 telemetry {ts_inv:#018x} (full {ts_full:#018x})",
                report.full_digest, report.semantic_digest
            );
            if (bare.full_digest, bare.semantic_digest)
                != (report.full_digest, report.semantic_digest)
            {
                eprintln!(
                    "OBSERVER-EFFECT FAILURE: telemetry collection changed the semester \
                     digests at {shards}x{workers}"
                );
                ok = false;
            }
            if *full.get_or_insert(report.full_digest) != report.full_digest {
                eprintln!(
                    "DETERMINISM FAILURE: full digest varies with workers at {shards} shard(s)"
                );
                ok = false;
            }
            if *full_ts.get_or_insert(ts_full) != ts_full {
                eprintln!(
                    "DETERMINISM FAILURE: telemetry full digest varies with workers at \
                     {shards} shard(s)"
                );
                ok = false;
            }
            if *semantic.get_or_insert(report.semantic_digest) != report.semantic_digest {
                eprintln!("DETERMINISM FAILURE: semantic semester digest varies across cells");
                ok = false;
            }
            if *invariant_ts.get_or_insert(ts_inv) != ts_inv {
                eprintln!("DETERMINISM FAILURE: invariant telemetry digest varies across cells");
                ok = false;
            }
        }
    }

    ok &= full_semester_holds();

    if !ok {
        std::process::exit(1);
    }
    println!(
        "serve --check: OK (course week bit-identical across 1/2/4/8 workers; \
         smoke semester + telemetry bit-identical across the {{1,2,4}}x{{1,4}} \
         shard/worker matrix; full semester equal to its pins at 1/2/4/8 shards)"
    );
    std::process::exit(0);
}

/// The full semester's semantic digest, one value at every shard count.
const FULL_SEMANTIC_DIGEST: u64 = 0xb230_bb36_190c_6b87;

/// Admitted arrivals of the full semester, the same at every shard count.
const FULL_ACCEPTED: u64 = 989_572;

/// The full semester per shard count at 4 workers per shard, as
/// committed: `(shards, full digest, computed, saved, p99 sojourn vt)`,
/// where saved counts L1 and L2 hits plus local and cross-shard joins.
/// saved / accepted is the hit rate: 0.8637, 0.9189, 0.9959, 0.9959.
/// Every value is virtual time or a counter, so each pin is exact.
const FULL_SEMESTER: [(u32, u64, u64, u64, u64); 4] = [
    (1, 0x5755_7406_99e0_b19a, 134_877, 854_695, 445_846_854_658),
    (2, 0xb560_cca0_2604_1825, 80_273, 909_299, 318_777_747_834),
    (4, 0xf114_3007_a49e_b8d7, 4_096, 985_476, 261_214_727_516),
    (8, 0xdd2a_6a08_d6cb_461f, 4_096, 985_476, 218_297_750_000),
];

/// Serves the full semester at 1/2/4/8 shards and compares every cell
/// with [`FULL_SEMESTER`]; each mismatch names the shard count, the
/// field and both values.
fn full_semester_holds() -> bool {
    let cfg = SemesterConfig::full();
    let mut ok = true;
    for (shards, full_digest, computed, saved, p99_vt) in FULL_SEMESTER {
        let r = cluster::run_semester(&Cluster::new(ClusterConfig::with_shards(shards, 4)), &cfg);
        let s = &r.stats;
        let fresh_saved = s.l1_hits + s.l2_hits + s.local_joins + s.cross_joins;
        let fresh_p99 = r.sojourn_percentile_vt(0.99);
        println!(
            "serve --check: full semester {shards}x4 full {:#018x} semantic {:#018x} \
             accepted {} computed {} saved {fresh_saved} p99 {fresh_p99} vt",
            r.full_digest, r.semantic_digest, s.accepted, s.computed
        );
        let (hex, dec) = (|v: u64| format!("{v:#018x}"), |v: u64| v.to_string());
        for (field, committed, fresh) in [
            (
                "semantic_digest",
                hex(FULL_SEMANTIC_DIGEST),
                hex(r.semantic_digest),
            ),
            ("full_digest", hex(full_digest), hex(r.full_digest)),
            ("accepted", dec(FULL_ACCEPTED), dec(s.accepted)),
            ("computed", dec(computed), dec(s.computed)),
            ("saved", dec(saved), dec(fresh_saved)),
            ("p99_sojourn_vt", dec(p99_vt), dec(fresh_p99)),
        ] {
            if committed != fresh {
                eprintln!(
                    "PIN FAILURE: full semester at {shards} shard(s): {field} committed \
                     {committed}, fresh {fresh}"
                );
                ok = false;
            }
        }
    }
    ok
}

/// `--series-out` mode: serves the smoke semester (clean) with
/// telemetry attached on the canonical 4-shard × 2-worker cluster and
/// writes the `"pbl-ts/v1"` series JSON, gated on the observer-effect
/// invariant.
fn series_mode(out: &str) -> ! {
    let cfg = SemesterConfig::smoke();
    let bare = cluster::run_semester(&Cluster::new(ClusterConfig::with_shards(4, 2)), &cfg);
    let (report, series) =
        telemetry::run_semester_observed(&Cluster::new(ClusterConfig::with_shards(4, 2)), &cfg);
    assert_eq!(
        (bare.full_digest, bare.semantic_digest),
        (report.full_digest, report.semantic_digest),
        "determinism violated: telemetry collection perturbed the semester"
    );
    std::fs::write(out, series.to_json_with_digest()).unwrap_or_else(|e| {
        eprintln!("serve: cannot write {out}: {e}");
        std::process::exit(2);
    });
    let timeline = telemetry::evaluate_health(&series);
    println!(
        "serve series: {} series, telemetry digest {:#018x} (full {:#018x}), \
         {} incidents firing -> {out}",
        series.len(),
        series.invariant_digest(),
        series.digest(),
        timeline.firing_count()
    );
    std::process::exit(0);
}

/// `--trace-out` mode: the scheduler trace of Monday on one shard.
fn trace_mode(out: &str) -> ! {
    let week = course_week();
    let monday = &week[0];
    let report = Cluster::new(ClusterConfig::with_shards(1, 4)).run_day(monday);
    let trace = report.trace(monday, &obs::trace::TraceConfig::default());
    std::fs::write(out, trace.to_chrome_json()).unwrap_or_else(|e| {
        eprintln!("serve: cannot write {out}: {e}");
        std::process::exit(2);
    });
    println!(
        "serve trace: {} submissions, report digest 0x{:016x}, trace digest 0x{:016x} -> {out}",
        monday.len(),
        report.digest(),
        trace.digest()
    );
    std::process::exit(0);
}

fn usage() -> ! {
    eprintln!("usage: serve (--check | --trace-out <path> | --series-out <path>)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["--check"] => check_mode(),
        ["--trace-out", out] => trace_mode(out),
        ["--series-out", out] => series_mode(out),
        _ => usage(),
    }
}
