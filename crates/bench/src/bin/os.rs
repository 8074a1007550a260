//! CI determinism and scheduling gate over the pbl-os layer.
//!
//! Runs the oversubscription study (P ∈ {4, 5, 8} processes on C = 4
//! cores under round-robin, priority round-robin, and CFS) and the
//! static-vs-guided loop study, then renders `BENCH_os.json`: per-cell
//! makespans, context-switch counts, pinned report digests
//! (`telemetry_digest`) and virtual-time speedups (1 core vs 4 cores).
//! Every value is virtual, so the document is host-invariant and
//! `--check` holds all of them bit for bit.
//!
//! Usage:
//!   os [--check] [out.json]
//!
//! Default output path: `BENCH_os.json` in the current directory. Any
//! other argument starting with `-` prints the usage line and exits 2.
//! `--check` compares the fresh document byte-for-byte against the
//! committed file and additionally sweeps a scheduler × timeslice
//! matrix, asserting every cell replays bit-identically and that the
//! retired-work total is scheduler-invariant. Exits 1 on any failure.
//!
//! When `$GITHUB_STEP_SUMMARY` is set (CI), a verdict table is appended
//! there as markdown; locally this is a no-op.

use obs::json::{self, Layout};
use os::kernel::{Os, OsConfig};
use os::study::{
    loop_study, oversub_workload, oversubscription_study, run_oversub, study_digest, SchedKind,
};
use pbl_bench::{compare_or_write, summary};

const CORES: usize = 4;
const PROCS: [usize; 3] = [4, 5, 8];
const TIMESLICES: [u64; 3] = [20_000, 50_000, 80_000];

fn document() -> String {
    let study = oversubscription_study(CORES, &PROCS);
    let loops = loop_study();
    json::document(0, false, |doc| {
        doc.str("bench", "os");
        doc.str(
            "description",
            "The OS layer's oversubscription study (P processes on 4 cores under rr/prio_rr/cfs) and the static-vs-guided loop study run as preemptible processes. Every telemetry_digest is a pinned FNV-1a report digest and must replay bit-identically; speedups are virtual-time ratios (1 core vs 4 cores) and are host-invariant.",
        );
        doc.str(
            "command",
            "cargo run --release -p pbl-bench --bin os -- --check",
        );
        doc.u64("cores", CORES as u64);
        doc.str(
            "note",
            "fully deterministic: virtual-time simulation with (time, registration-order) tie-breaks; this file is byte-identical on every host and every run",
        );
        doc.array("scenarios", Layout::Block, |scenarios| {
            for cell in &study.cells {
                let r = &cell.report;
                scenarios.object(Layout::Block, |o| {
                    o.str(
                        "name",
                        &format!("os/oversub_p{}_{}", cell.procs, cell.kind.label()),
                    );
                    o.u64("procs", cell.procs as u64);
                    o.str("scheduler", cell.kind.label());
                    o.u64("makespan_vt", r.makespan);
                    o.u64("context_switches", r.context_switches);
                    o.u64("involuntary_preemptions", r.involuntary_preemptions);
                    o.u64("voluntary_yields", r.voluntary_yields);
                    o.u64("syscalls", r.syscalls);
                    o.u64("retired_work", r.retired_work);
                    let max_ready_wait = r.procs.iter().map(|p| p.max_ready_wait).max();
                    o.u64("max_ready_wait_vt", max_ready_wait.unwrap_or(0));
                    o.u64("completion_spread_vt", r.completion_spread());
                    o.hex("telemetry_digest", r.digest());
                });
            }
            for kind in SchedKind::ALL {
                // The P=4 cohort on one core is the speedup's baseline.
                let one = run_oversub(1, 4, kind).makespan;
                let four = study
                    .cells
                    .iter()
                    .find(|c| c.procs == 4 && c.kind == kind)
                    .expect("P=4 cell present")
                    .report
                    .makespan;
                scenarios.object(Layout::Block, |o| {
                    o.str("name", &format!("os/speedup_p4_{}", kind.label()));
                    o.u64("makespan_1core_vt", one);
                    o.u64("makespan_4core_vt", four);
                    o.token("speedup", format_args!("{:.4}", one as f64 / four as f64));
                });
            }
            scenarios.object(Layout::Block, |o| {
                let (fixed, guided) = (loops.static_report.makespan, loops.guided_report.makespan);
                o.str("name", "os/loop_static_vs_guided");
                o.u64("threads", loops.threads as u64);
                o.u64("iterations", loops.iterations as u64);
                o.u64("static_makespan_vt", fixed);
                o.u64("guided_makespan_vt", guided);
                o.token(
                    "speedup",
                    format_args!("{:.4}", fixed as f64 / guided as f64),
                );
                o.hex("telemetry_digest", loops.digest());
            });
            scenarios.object(Layout::Block, |o| {
                o.str("name", "os/study");
                o.u64(
                    "retired_work_total",
                    study.cells.iter().map(|c| c.report.retired_work).sum(),
                );
                o.hex("telemetry_digest", study_digest());
            });
        });
    })
}

/// The scheduler × timeslice determinism matrix: every cell must
/// replay bit-identically, and at each timeslice the retired-work
/// total must be identical across schedulers.
fn matrix_failures() -> Vec<String> {
    let mut fails = Vec::new();
    for slice in TIMESLICES {
        let mut retired: Vec<(SchedKind, u64)> = Vec::new();
        for kind in SchedKind::ALL {
            let run = || {
                let mut cfg = OsConfig::pi_with_cores(CORES);
                cfg.timeslice = slice;
                Os::new(cfg).run(oversub_workload(5), kind.make())
            };
            let a = run();
            let b = run();
            if a.digest() != b.digest() {
                fails.push(format!(
                    "{}/timeslice {slice}: replay not bit-identical (0x{:016x} vs 0x{:016x})",
                    kind.label(),
                    a.digest(),
                    b.digest()
                ));
            }
            retired.push((kind, a.retired_work));
        }
        let first = retired[0].1;
        for (kind, r) in &retired[1..] {
            if *r != first {
                fails.push(format!(
                    "timeslice {slice}: retired work varies by scheduler ({} {} vs {} {})",
                    retired[0].0.label(),
                    first,
                    kind.label(),
                    r
                ));
            }
        }
    }
    fails
}

fn usage() -> ! {
    eprintln!("usage: os [--check] [out.json]");
    std::process::exit(2);
}

fn main() {
    let mut check = false;
    let mut out_path = "BENCH_os.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            flag if flag.starts_with('-') => usage(),
            path => out_path = path.to_string(),
        }
    }

    let mut failures: Vec<String> = Vec::new();

    // The study digest itself must replay bit-identically before we
    // pin it anywhere.
    let (d1, d2) = (study_digest(), study_digest());
    if d1 != d2 {
        failures.push(format!(
            "study digest not reproducible: 0x{d1:016x} vs 0x{d2:016x}"
        ));
    }

    if check {
        failures.extend(matrix_failures());
    }
    failures.extend(compare_or_write(
        "os",
        &out_path,
        &document(),
        check,
        "the OS layer's deterministic schedules changed — regenerate and review",
    ));

    for f in &failures {
        eprintln!("os: FAILURE: {f}");
    }
    let ok = failures.is_empty();
    let rows = vec![
        vec![
            "study digest".to_string(),
            format!("0x{d1:016x}"),
            if d1 == d2 {
                "✅ reproducible"
            } else {
                "❌ drifts"
            }
            .to_string(),
        ],
        vec![
            "scheduler × timeslice matrix".to_string(),
            format!(
                "{} schedulers × {} timeslices",
                SchedKind::ALL.len(),
                TIMESLICES.len()
            ),
            if check {
                if ok {
                    "✅ bit-identical, retired work invariant"
                } else {
                    "❌ see log"
                }
                .to_string()
            } else {
                "— (write mode)".to_string()
            },
        ],
    ];
    summary::append_step_summary(&summary::markdown_table(
        &format!("os gate — {}", if ok { "PASS" } else { "FAIL" }),
        &["check", "value", "verdict"],
        &rows,
    ));
    if !ok {
        std::process::exit(1);
    }
    println!(
        "os: OK — every schedule replays bit-identically and retired work is scheduler-invariant"
    );
}
