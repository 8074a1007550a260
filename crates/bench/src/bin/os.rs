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
//! Default output path: `BENCH_os.json` in the current directory.
//! `--check` compares the fresh document byte-for-byte against the
//! committed file and additionally sweeps a scheduler × timeslice
//! matrix, asserting every cell replays bit-identically and that the
//! retired-work total is scheduler-invariant. Exits 1 on any failure.
//!
//! When `$GITHUB_STEP_SUMMARY` is set (CI), a verdict table is appended
//! there as markdown; locally this is a no-op.

use os::kernel::{Os, OsConfig, OsReport};
use os::study::{
    loop_study, oversub_workload, oversubscription_study, run_oversub, study_digest, SchedKind,
};
use pbl_bench::summary;

const CORES: usize = 4;
const PROCS: [usize; 3] = [4, 5, 8];
const TIMESLICES: [u64; 3] = [20_000, 50_000, 80_000];

fn max_ready_wait(r: &OsReport) -> u64 {
    r.procs.iter().map(|p| p.max_ready_wait).max().unwrap_or(0)
}

/// One run of the P=4 cohort on a single core, for the virtual-time
/// speedup baseline.
fn single_core_makespan(kind: SchedKind) -> u64 {
    run_oversub(1, 4, kind).makespan
}

fn document() -> String {
    let study = oversubscription_study(CORES, &PROCS);
    let loops = loop_study();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"os\",\n");
    out.push_str(
        "  \"description\": \"The OS layer's oversubscription study (P processes on 4 cores under rr/prio_rr/cfs) and the static-vs-guided loop study run as preemptible processes. Every telemetry_digest is a pinned FNV-1a report digest and must replay bit-identically; speedups are virtual-time ratios (1 core vs 4 cores) and are host-invariant.\",\n",
    );
    out.push_str("  \"command\": \"cargo run --release -p pbl-bench --bin os -- --check\",\n");
    out.push_str(&format!("  \"cores\": {CORES},\n"));
    out.push_str(
        "  \"note\": \"fully deterministic: virtual-time simulation with (time, registration-order) tie-breaks; this file is byte-identical on every host and every run\",\n",
    );
    out.push_str("  \"scenarios\": [\n");
    let mut blocks: Vec<String> = Vec::new();
    for cell in &study.cells {
        let r = &cell.report;
        blocks.push(format!(
            "    {{\n      \"name\": \"os/oversub_p{}_{}\",\n      \"procs\": {},\n      \"scheduler\": \"{}\",\n      \"makespan_vt\": {},\n      \"context_switches\": {},\n      \"involuntary_preemptions\": {},\n      \"voluntary_yields\": {},\n      \"syscalls\": {},\n      \"retired_work\": {},\n      \"max_ready_wait_vt\": {},\n      \"completion_spread_vt\": {},\n      \"telemetry_digest\": \"0x{:016x}\"\n    }}",
            cell.procs,
            cell.kind.label(),
            cell.procs,
            cell.kind.label(),
            r.makespan,
            r.context_switches,
            r.involuntary_preemptions,
            r.voluntary_yields,
            r.syscalls,
            r.retired_work,
            max_ready_wait(r),
            r.completion_spread(),
            r.digest()
        ));
    }
    for kind in SchedKind::ALL {
        let one = single_core_makespan(kind);
        let four = study
            .cells
            .iter()
            .find(|c| c.procs == 4 && c.kind == kind)
            .expect("P=4 cell present")
            .report
            .makespan;
        blocks.push(format!(
            "    {{\n      \"name\": \"os/speedup_p4_{}\",\n      \"makespan_1core_vt\": {},\n      \"makespan_4core_vt\": {},\n      \"speedup\": {:.4}\n    }}",
            kind.label(),
            one,
            four,
            one as f64 / four as f64
        ));
    }
    blocks.push(format!(
        "    {{\n      \"name\": \"os/loop_static_vs_guided\",\n      \"threads\": {},\n      \"iterations\": {},\n      \"static_makespan_vt\": {},\n      \"guided_makespan_vt\": {},\n      \"speedup\": {:.4},\n      \"telemetry_digest\": \"0x{:016x}\"\n    }}",
        loops.threads,
        loops.iterations,
        loops.static_report.makespan,
        loops.guided_report.makespan,
        loops.static_report.makespan as f64 / loops.guided_report.makespan as f64,
        loops.digest()
    ));
    blocks.push(format!(
        "    {{\n      \"name\": \"os/study\",\n      \"retired_work_total\": {},\n      \"telemetry_digest\": \"0x{:016x}\"\n    }}",
        study
            .cells
            .iter()
            .map(|c| c.report.retired_work)
            .sum::<u64>(),
        study_digest()
    ));
    out.push_str(&blocks.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
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

fn main() {
    let mut check = false;
    let mut out_path = "BENCH_os.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            other => out_path = other.to_string(),
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

    let doc = document();
    if check {
        failures.extend(matrix_failures());
        match std::fs::read_to_string(&out_path) {
            Ok(committed) if committed == doc => {
                println!("os: fresh document matches committed {out_path}");
            }
            Ok(_) => failures.push(format!(
                "DRIFT: fresh document differs from committed {out_path} \
                 (the OS layer's deterministic schedules changed — regenerate and review)"
            )),
            Err(e) => failures.push(format!("cannot read committed {out_path}: {e}")),
        }
    } else {
        std::fs::write(&out_path, &doc).unwrap_or_else(|e| {
            eprintln!("os: cannot write {out_path}: {e}");
            std::process::exit(2);
        });
        println!("os: wrote {out_path}");
    }

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
