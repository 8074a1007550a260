//! The repository's benchmark: four workloads driven through the public
//! API of the crates that do the work, outputs checked, every metric
//! printed by name with its unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench pins                 # print the digest tables of pins.rs
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it records wall-clock spans around the calls into each
//! layer, writes them as Chrome JSON to
//! `perfbench/out/trace_<workload>.json` (Perfetto opens it), and
//! prints the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! The exit code is 0 only when every output check held. See
//! `perfbench/RATIONALE.md` for the workloads and metrics.

mod harness;
mod oversub;
mod pins;
mod replication;
mod semester;
mod tracer;

use harness::{host_jiffies, peak_rss_mb, Report};

/// End-to-end metrics, printed by untraced runs. Times are CPU time of
/// the process, all threads summed (see `harness::cpu_time`).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("unit_cpu_p50_ms", "ms"),
    ("unit_cpu_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs; 0 where a workload does
/// not exercise the layer.
const PER_LAYER: [(&str, &str); 46] = [
    ("host.nproc", "count"),
    ("workload.semester_day_ms", "ms"),
    ("spec.digest_ms", "ms"),
    ("spec.validate_ms", "ms"),
    ("cluster.run_day_ms", "ms"),
    ("cluster.route_ms", "ms"),
    ("cluster.accepted", "count"),
    ("cluster.rejected", "count"),
    ("cluster.l1_hits", "count"),
    ("cluster.l2_hits", "count"),
    ("cluster.local_joins", "count"),
    ("cluster.cross_joins", "count"),
    ("cluster.computed", "count"),
    ("cluster.l1_evictions", "count"),
    ("cluster.l2_evictions", "count"),
    ("cluster.hit_rate", "ratio"),
    ("sched.plan_ms", "ms"),
    ("sched.sojourn_p50_vt", "vt"),
    ("sched.sojourn_p99_vt", "vt"),
    ("exec.loop_ms", "ms"),
    ("exec.reduction_ms", "ms"),
    ("exec.mapreduce_ms", "ms"),
    ("exec.jobs", "count"),
    ("parallel_rt.plan_ms", "ms"),
    ("parallel_rt.lower_ms", "ms"),
    ("pi_sim.machine_run_ms", "ms"),
    ("pi_sim.sim_cycles", "cycles"),
    ("obs.snapshot_json_ms", "ms"),
    ("classroom.wave_scores_ms", "ms"),
    ("stats.parametric_ms", "ms"),
    ("stats.perm_paired_ms", "ms"),
    ("stats.bootstrap_ms", "ms"),
    ("stats.perm_two_sample_ms", "ms"),
    ("stats.permutation_draws", "count"),
    ("stats.bootstrap_draws", "count"),
    ("replicate.run_ms", "ms"),
    ("os.run_ms", "ms"),
    ("os.sched_pick_ns", "ns"),
    ("os.context_switches", "count"),
    ("os.involuntary_preemptions", "count"),
    ("os.syscalls", "count"),
    ("os.sim_cycles", "cycles"),
    ("trace.unit_self_frac", "ratio"),
    ("trace.unit_p50_overhead_ms", "ms"),
    ("host.threads", "count"),
    ("host.units", "count"),
];

/// The workloads and the worker threads each runs.
const WORKLOADS: [(&str, usize); 4] = [
    ("semester_warm", semester::POOL_THREADS),
    ("semester_thrash", semester::POOL_THREADS),
    ("replication", replication::THREADS),
    ("os_oversub", 1),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Report {
    let file = format!("trace_{}.json", args.workload);
    let (seed, s) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("semester_warm", false) => semester::run(seed, semester::WARM_L2_TOTAL, s),
        ("semester_warm", true) => semester::run_traced(seed, semester::WARM_L2_TOTAL, s, &file),
        ("semester_thrash", false) => semester::run(seed, semester::THRASH_L2_TOTAL, s),
        ("semester_thrash", true) => {
            semester::run_traced(seed, semester::THRASH_L2_TOTAL, s, &file)
        }
        ("replication", false) => replication::run(seed, s),
        ("replication", true) => replication::run_traced(seed, s, &file),
        ("os_oversub", false) => oversub::run(seed, s),
        ("os_oversub", true) => oversub::run_traced(seed, s, &file),
        _ => unreachable!("workload validated before the run"),
    }
}

fn result_line(report: &Report, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.0.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pins") {
        pins::print_tables();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(&(_, threads)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {names:?}",
            args.workload
        );
        std::process::exit(2);
    };
    // Host guard: no workload may run more threads than the host has.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads > nproc {
        eprintln!(
            "perfbench: refusing {}: it runs {threads} threads but the host has nproc = {nproc}",
            args.workload
        );
        std::process::exit(3);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} threads={threads} held_out_seed={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pins::HELD_OUT_SEED
    );

    let (steal0, total0) = host_jiffies();
    let mut report = run(&args);
    let (steal1, total1) = host_jiffies();
    report.notes.push(format!(
        "host steal during the run: {:.2}% of CPU time",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    ));
    let table: &[(&str, &str)] = if args.trace {
        let m = &mut report.metrics;
        m.set("host.nproc", nproc as f64);
        m.set("host.threads", threads as f64);
        m.set("host.units", report.attempted as f64);
        &PER_LAYER
    } else {
        report.metrics.set("peak_rss_mb", peak_rss_mb());
        &END_TO_END
    };
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# units: {} attempted, {} failed",
        report.attempted, report.failed
    );
    println!("{}", result_line(&report, table));
    if !report.correct {
        eprintln!("perfbench: output check failed");
        std::process::exit(1);
    }
}
