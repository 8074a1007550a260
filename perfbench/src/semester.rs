//! `semester_warm` and `semester_thrash`: the open-loop semester of
//! `serve::workload::semester_day`, served day by day by a 2-shard ×
//! 1-worker `Cluster`. The two differ only in total L2 capacity: twice
//! the 4096-spec universe (warm) or a quarter of it (thrash).
//!
//! Closed loop over units: one unit is one `Cluster::run_day`, the next
//! day starts when the previous returns. Within a day arrivals are an
//! open loop in virtual time. A run serves whole semesters, each on a
//! fresh (cold) cluster, so every run sees the same mix of days.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use obs::trace::fnv1a;
use parallel_rt::sim::{lower_programs, plan_assignment, Lowering, SimOptions};
use pi_sim::machine::Machine;
use serve::cluster::{ClusterOutcome, ClusterSource};
use serve::sched::plan_arrivals;
use serve::spec::JobSpec;
use serve::workload::{semester_day, Arrival, JobUniverse};
use serve::{
    Cluster, ClusterConfig, ClusterStats, DayReport, JobResult, RejectReason, SemesterConfig,
};

use crate::harness::{guarded, median, Budget, Pass, Report, Stopwatch, SETUP_REPS};
use crate::pins;
use crate::tracer::{close, Tracer, REPLAY, UNIT};

/// Coordinator shards.
pub const SHARDS: u32 = 2;
/// Worker threads per shard; the execute pool is `SHARDS × WORKERS`.
pub const WORKERS_PER_SHARD: usize = 1;
/// Total L2 entries of `semester_warm`: twice the spec universe.
pub const WARM_L2_TOTAL: usize = 8_192;
/// Total L2 entries of `semester_thrash`: a quarter of the universe.
pub const THRASH_L2_TOTAL: usize = 1_024;

/// Threads the cluster's execute pool runs.
pub const POOL_THREADS: usize = SHARDS as usize * WORKERS_PER_SHARD;

fn cluster_config(l2_total: usize) -> ClusterConfig {
    let mut config = ClusterConfig::with_shards(SHARDS, WORKERS_PER_SHARD);
    config.l2_capacity_per_shard = l2_total / SHARDS as usize;
    config
}

/// The full semester with the workload seed as its master seed; seed
/// 2026 is `SemesterConfig::full()` itself.
pub fn semester_config(seed: u64) -> SemesterConfig {
    SemesterConfig {
        seed,
        ..SemesterConfig::full()
    }
}

/// Generated inputs: the spec universe and every day's arrivals.
struct Inputs {
    cfg: SemesterConfig,
    universe: JobUniverse,
    days: Vec<Vec<Arrival>>,
}

fn generate(seed: u64) -> Inputs {
    let cfg = semester_config(seed);
    let universe = JobUniverse::new(cfg.seed, cfg.unique_jobs);
    let days = (0..cfg.days)
        .map(|day| semester_day(&cfg, &universe, day))
        .collect();
    Inputs {
        cfg,
        universe,
        days,
    }
}

/// What a served semester must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemesterPin {
    /// The semantic semester digest (`run_semester`'s chain).
    pub semantic_digest: u64,
    /// Arrivals admitted.
    pub accepted: u64,
    /// Arrivals refused at admission.
    pub rejected: u64,
    /// WFQ sojourn p50 (virtual ticks, nearest rank as `SemesterReport`).
    pub sojourn_p50_vt: u64,
    /// WFQ sojourn p99.
    pub sojourn_p99_vt: u64,
}

/// `DayReport::semantic_digest`, hashing each distinct result once:
/// cache hits share one `Arc<JobResult>`, so the day's outcomes are
/// memoised by pointer (the report keeps every result alive, so no
/// address is reused while the map exists).
fn semantic_digest(report: &DayReport) -> u64 {
    let mut memo: HashMap<*const JobResult, u64> = HashMap::new();
    let mut bytes = Vec::with_capacity(16 + report.outcomes.len() * 9);
    bytes.extend(b"pbl-cluster-sem/v1");
    for outcome in &report.outcomes {
        match outcome {
            ClusterOutcome::Done(done) => {
                let digest = *memo
                    .entry(Arc::as_ptr(&done.result))
                    .or_insert_with(|| done.result.digest());
                bytes.push(0);
                bytes.extend(digest.to_le_bytes());
            }
            ClusterOutcome::Rejected(reason) => {
                bytes.push(1);
                bytes.push(match reason {
                    RejectReason::QueueFull => 0,
                    RejectReason::TenantCap => 1,
                    RejectReason::InvalidSpec(_) => 2,
                });
            }
        }
    }
    fnv1a(&bytes)
}

/// Running totals over one semester.
struct Tally {
    chain: Vec<u8>,
    stats: ClusterStats,
    sojourns: Vec<u64>,
    /// Days whose memoised digest differed from the library's.
    digest_mismatches: u64,
    /// Whether to also compute each day's digest the library's way.
    cross_check: bool,
}

impl Tally {
    fn new(inputs: &Inputs, cross_check: bool) -> Self {
        Tally {
            chain: b"pbl-semester-sem/v1".to_vec(),
            stats: ClusterStats::default(),
            sojourns: Vec::with_capacity(inputs.days.iter().map(Vec::len).sum()),
            digest_mismatches: 0,
            cross_check,
        }
    }

    fn add(&mut self, report: &DayReport) {
        let digest = semantic_digest(report);
        if self.cross_check && digest != report.semantic_digest() {
            self.digest_mismatches += 1;
        }
        self.chain.extend(digest.to_le_bytes());
        add_stats(&mut self.stats, &report.stats);
        self.sojourns.extend(report.sojourns_vt());
    }

    /// The semester's pin values, or `None` if a memoised day digest
    /// disagreed with the library's.
    fn pin(mut self) -> Option<SemesterPin> {
        if self.digest_mismatches > 0 {
            return None;
        }
        self.sojourns.sort_unstable();
        Some(SemesterPin {
            semantic_digest: fnv1a(&self.chain),
            accepted: self.stats.accepted,
            rejected: self.stats.rejected(),
            sojourn_p50_vt: sojourn_percentile(&self.sojourns, 0.50),
            sojourn_p99_vt: sojourn_percentile(&self.sojourns, 0.99),
        })
    }
}

/// `SemesterReport::sojourn_percentile_vt` on sorted sojourns.
fn sojourn_percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

fn add_stats(total: &mut ClusterStats, day: &ClusterStats) {
    total.submitted += day.submitted;
    total.accepted += day.accepted;
    total.rejected_queue_full += day.rejected_queue_full;
    total.rejected_tenant_cap += day.rejected_tenant_cap;
    total.rejected_invalid += day.rejected_invalid;
    total.l1_hits += day.l1_hits;
    total.l2_hits += day.l2_hits;
    total.local_joins += day.local_joins;
    total.cross_joins += day.cross_joins;
    total.computed += day.computed;
    total.l1_evictions += day.l1_evictions;
    total.l2_evictions += day.l2_evictions;
}

/// Serves one whole semester untraced on a cold cluster, recording one
/// unit per day into `pass`. Returns the semester's pin values, or
/// `None` if a day panicked or a cross-checked digest disagreed. With
/// `cross_check` every day's digest is also computed by
/// `DayReport::semantic_digest`.
fn serve_semester(
    inputs: &Inputs,
    config: &ClusterConfig,
    cross_check: bool,
    pass: &mut Pass,
) -> Option<SemesterPin> {
    let cluster = Cluster::new(config.clone());
    let mut tally = Tally::new(inputs, cross_check);
    let mut ok = true;
    for (day, arrivals) in inputs.days.iter().enumerate() {
        let watch = Stopwatch::start();
        let report = guarded(|| cluster.run_day(arrivals));
        let lap = watch.lap_ms();
        match report {
            Some(report) => {
                let s = &report.stats;
                pass.unit(day as u64, lap, s.accepted as f64, s.submitted as f64);
                tally.add(&report);
            }
            None => {
                pass.failed_unit(arrivals.len() as f64);
                ok = false;
            }
        }
    }
    if ok {
        tally.pin()
    } else {
        None
    }
}

/// The pin a semester must match: the table's entry for this seed, or,
/// for a seed outside the table, the digest a 1-shard cluster with a
/// cache larger than the universe produces (the semantic digest is
/// shard-count and cache-size invariant) together with the first
/// semester's own counts and sojourns. `None` if that reference failed.
fn expected_pin(
    inputs: &Inputs,
    first: &SemesterPin,
    notes: &mut Vec<String>,
) -> Option<SemesterPin> {
    if let Some(pin) = pins::semester(inputs.cfg.seed) {
        notes.push(format!(
            "output check: pinned semester digests for seed {}",
            inputs.cfg.seed
        ));
        return Some(pin);
    }
    let mut reference = ClusterConfig::with_shards(1, 1);
    reference.l2_capacity_per_shard = 4 * WARM_L2_TOTAL;
    let mut scratch = Pass::default();
    notes.push(format!(
        "output check: seed {} is not pinned; semantic digest compared with a 1-shard reference cluster",
        inputs.cfg.seed
    ));
    let semantic = serve_semester(inputs, &reference, false, &mut scratch)?.semantic_digest;
    Some(SemesterPin {
        semantic_digest: semantic,
        ..*first
    })
}

/// Median CPU set-up time over [`SETUP_REPS`] set-ups, and the inputs
/// of the last one.
fn setup(seed: u64, config: &ClusterConfig) -> (f64, Inputs) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let watch = Stopwatch::start();
        let inputs = generate(seed);
        let cluster = Cluster::new(config.clone());
        times.push(watch.cpu_ms() / 1e3);
        black_box(cluster);
        kept = Some(inputs);
    }
    (median(&times), kept.expect("at least one set-up"))
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, l2_total: usize, seconds: f64) -> Report {
    let config = cluster_config(l2_total);
    let (setup_s, inputs) = setup(seed, &config);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.metrics.set("setup_s", setup_s);

    let budget = Budget::start(seconds);
    let mut pass = Pass::default();
    let mut first: Option<SemesterPin> = None;
    let mut semesters = 0u64;
    let mut mismatched = 0u64;
    loop {
        let start = Instant::now();
        let pin = serve_semester(&inputs, &config, first.is_none(), &mut pass);
        semesters += 1;
        match (pin, first) {
            (None, _) => report.correct = false,
            (Some(pin), None) => first = Some(pin),
            (Some(pin), Some(want)) if pin != want => mismatched += 1,
            _ => {}
        }
        if !budget.room_for(start.elapsed()) {
            break;
        }
    }
    if let Some(got) = first {
        let want = expected_pin(&inputs, &got, &mut report.notes);
        if want != Some(got) {
            report
                .notes
                .push(format!("semester mismatch: got {got:x?}, want {want:x?}"));
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        // A wrong semester fails every unit it served.
        report.correct = false;
        pass.fail_all();
    }
    report.notes.push(format!(
        "served {semesters} semesters ({} days) on {SHARDS} shards x {WORKERS_PER_SHARD} worker, total L2 {l2_total}",
        pass.units
    ));
    report.notes.push(pass.wall_note());
    report.attempted = pass.units;
    report.failed = pass.units_failed;
    report.correct &= pass.units_failed == 0;
    pass.end_to_end(&mut report.metrics);
    report
}

/// The day's computed specs, by engine.
#[derive(Default)]
struct Computed<'a> {
    loops: Vec<(&'a JobSpec, u64)>,
    reductions: Vec<(&'a JobSpec, u64)>,
    mapreduces: Vec<(&'a JobSpec, u64)>,
}

/// Layer operations inside a traced day unit; they must add up to it.
const DAY_CHILDREN: [&str; 2] = ["workload.semester_day", "cluster.run_day"];

/// Per-day layer operations reported as `<op>_ms`, mean per served day.
const DAY_MS: [(&str, &str); 13] = [
    ("workload.semester_day", "workload.semester_day_ms"),
    ("cluster.run_day", "cluster.run_day_ms"),
    ("spec.digest", "spec.digest_ms"),
    ("spec.validate", "spec.validate_ms"),
    ("cluster.route", "cluster.route_ms"),
    ("sched.plan", "sched.plan_ms"),
    ("exec.loop", "exec.loop_ms"),
    ("exec.reduction", "exec.reduction_ms"),
    ("exec.mapreduce", "exec.mapreduce_ms"),
    ("parallel_rt.plan", "parallel_rt.plan_ms"),
    ("parallel_rt.lower", "parallel_rt.lower_ms"),
    ("pi_sim.machine_run", "pi_sim.machine_run_ms"),
    ("obs.snapshot_json", "obs.snapshot_json_ms"),
];

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, l2_total: usize, seconds: f64, trace_file: &str) -> Report {
    let config = cluster_config(l2_total);
    let (_, inputs) = setup(seed, &config);
    let mut report = Report {
        correct: true,
        ..Report::default()
    };

    // Untraced reference semester for the tracing overhead.
    let mut untraced = Pass::default();
    let reference = serve_semester(&inputs, &config, true, &mut untraced);

    let budget = Budget::start(seconds);
    let mut tracer = Tracer::new();
    let mut totals = ClusterStats::default();
    let mut run_day_ms = Vec::new();
    let mut semesters = 0u64;
    let mut unit_id = 0u64;
    let mut exec_jobs = 0u64;
    let mut sim_cycles = 0u64;
    let mut failures = 0u64;
    let mut pin = None;
    loop {
        let semester_start = Instant::now();
        let cluster = Cluster::new(config.clone());
        let mut tally = Tally::new(&inputs, false);
        for day in 0..inputs.cfg.days {
            let start = tracer.now();
            let arrivals = tracer.layer("workload.semester_day", "day", unit_id, || {
                semester_day(&inputs.cfg, &inputs.universe, day)
            });
            let run_start = tracer.now();
            let day_report = tracer.layer("cluster.run_day", "day", unit_id, || {
                cluster.run_day(&arrivals)
            });
            let end = tracer.now();
            tracer.unit(UNIT, "day", unit_id, start, end);
            run_day_ms.push((end - run_start) as f64 / 1e6);
            if !same_arrivals(&arrivals, &inputs.days[day]) {
                failures += 1;
            }
            let (jobs, cycles, bad) =
                replay_day(&mut tracer, unit_id, &cluster, &arrivals, &day_report);
            exec_jobs += jobs;
            sim_cycles += cycles;
            failures += bad;
            add_stats(&mut totals, &day_report.stats);
            tally.add(&day_report);
            unit_id += 1;
        }
        semesters += 1;
        match tally.pin() {
            Some(got) if reference == Some(got) => pin = Some(got),
            _ => failures += 1,
        }
        if !budget.room_for(semester_start.elapsed()) {
            break;
        }
    }
    if let Some(got) = pin {
        let want = expected_pin(&inputs, &got, &mut report.notes);
        if want != Some(got) {
            report
                .notes
                .push(format!("semester mismatch: got {got:x?}, want {want:x?}"));
            failures += 1;
        }
    }

    report
        .notes
        .push(format!("traced {semesters} semesters ({unit_id} days)"));
    let (times, attributed) = close(
        tracer,
        trace_file,
        &DAY_CHILDREN,
        &run_day_ms,
        &untraced,
        &mut report,
    );
    let days = unit_id.max(1) as f64;
    let per_semester = |v: u64| v as f64 / semesters as f64;
    let m = &mut report.metrics;
    for (op, name) in DAY_MS {
        m.set(name, times.layer_ns(op) as f64 / 1e6 / days);
    }
    m.set("cluster.accepted", per_semester(totals.accepted));
    m.set("cluster.rejected", per_semester(totals.rejected()));
    m.set("cluster.l1_hits", per_semester(totals.l1_hits));
    m.set("cluster.l2_hits", per_semester(totals.l2_hits));
    m.set("cluster.local_joins", per_semester(totals.local_joins));
    m.set("cluster.cross_joins", per_semester(totals.cross_joins));
    m.set("cluster.computed", per_semester(totals.computed));
    m.set("cluster.l1_evictions", per_semester(totals.l1_evictions));
    m.set("cluster.l2_evictions", per_semester(totals.l2_evictions));
    m.set("cluster.hit_rate", totals.hit_rate());
    m.set("exec.jobs", per_semester(exec_jobs));
    m.set("pi_sim.sim_cycles", per_semester(sim_cycles));
    if let Some(p) = pin {
        m.set("sched.sojourn_p50_vt", p.sojourn_p50_vt as f64);
        m.set("sched.sojourn_p99_vt", p.sojourn_p99_vt as f64);
    }
    report.correct = attributed && failures == 0 && reference.is_some();
    report.attempted = unit_id;
    report.failed = failures.min(unit_id);
    report
}

/// True when two arrival lists are the same trace.
fn same_arrivals(a: &[Arrival], b: &[Arrival]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.vt == y.vt && x.sub.tenant == y.sub.tenant && x.sub.spec == y.sub.spec)
}

/// Replays one served day layer by layer, checking each replay against
/// what `run_day` produced. Returns `(jobs re-executed, simulated
/// cycles, failed checks)`.
fn replay_day(
    tracer: &mut Tracer,
    unit: u64,
    cluster: &Cluster,
    arrivals: &[Arrival],
    day: &DayReport,
) -> (u64, u64, u64) {
    let mut bad = 0u64;
    // Served arrivals: (arrival index, shard, finish vt).
    let mut served: Vec<(usize, u32, u64)> = Vec::with_capacity(day.outcomes.len());
    let mut computed = Computed::default();
    for (index, outcome) in day.outcomes.iter().enumerate() {
        if let ClusterOutcome::Done(done) = outcome {
            served.push((index, done.shard, done.finish_vt));
            if done.source == ClusterSource::Computed {
                let digest = done.result.digest();
                let spec = &arrivals[index].sub.spec;
                let bucket = match spec {
                    JobSpec::LoopSim { .. } => &mut computed.loops,
                    JobSpec::ReductionSim { .. } => &mut computed.reductions,
                    _ => &mut computed.mapreduces,
                };
                bucket.push((spec, digest));
            }
        }
    }
    let mut inbox: Vec<Vec<(usize, &serve::Submission, u64)>> = vec![Vec::new(); SHARDS as usize];
    for &(index, shard, _) in &served {
        inbox[shard as usize].push((index, &arrivals[index].sub, arrivals[index].vt));
    }
    let finish: HashMap<usize, u64> = served.iter().map(|&(i, _, f)| (i, f)).collect();

    let start = tracer.now();
    black_box(tracer.layer("spec.digest", "replay", unit, || {
        arrivals
            .iter()
            .fold(0u64, |acc, a| acc ^ a.sub.spec.digest())
    }));
    let valid = tracer.layer("spec.validate", "replay", unit, || {
        arrivals
            .iter()
            .filter(|a| a.sub.spec.validate().is_ok())
            .count()
    });
    bad += u64::from(valid != arrivals.len());
    let ring = cluster.ring();
    let misrouted = tracer.layer("cluster.route", "replay", unit, || {
        served
            .iter()
            .filter(|&&(index, shard, _)| {
                ring.route(Cluster::route_key(&arrivals[index].sub)) != shard
            })
            .count()
    });
    bad += u64::from(misrouted != 0);
    let plans = tracer.layer("sched.plan", "replay", unit, || {
        inbox
            .iter()
            .map(|input| plan_arrivals(input))
            .collect::<Vec<_>>()
    });
    let replanned = plans
        .iter()
        .flatten()
        .all(|row| finish.get(&row.submission) == Some(&row.finish_vt));
    bad += u64::from(!replanned || plans.iter().map(Vec::len).sum::<usize>() != served.len());

    let mut executed = 0u64;
    let mut loop_payloads = Vec::new();
    for (op, jobs) in [
        ("exec.loop", &computed.loops),
        ("exec.reduction", &computed.reductions),
        ("exec.mapreduce", &computed.mapreduces),
    ] {
        let results = tracer.layer(op, "replay", unit, || {
            jobs.iter()
                .map(|(spec, _)| serve::exec::execute(spec))
                .collect::<Vec<_>>()
        });
        bad += u64::from(
            results
                .iter()
                .zip(jobs.iter())
                .any(|(r, (_, d))| r.digest() != *d),
        );
        executed += jobs.len() as u64;
        if op == "exec.loop" {
            loop_payloads = results.into_iter().map(|r| r.payload).collect();
        }
    }
    let (cycles, wrong_cycles) = replay_loops(tracer, unit, &computed.loops, &loop_payloads);
    bad += u64::from(wrong_cycles != 0);
    tracer.unit(REPLAY, "replay", unit, start, tracer.now());
    (executed, cycles, bad)
}

/// Splits the loop jobs' execution into its layers, phase by phase:
/// chunk planning and lowering (parallel-rt), the machine run (pi-sim)
/// and the metrics snapshot the result embeds (obs). Returns the
/// simulated cycles and how many jobs disagree with `exec`'s payload.
fn replay_loops(
    tracer: &mut Tracer,
    unit: u64,
    loops: &[(&JobSpec, u64)],
    payloads: &[String],
) -> (u64, usize) {
    let opts = SimOptions::default();
    let params: Vec<_> = loops
        .iter()
        .filter_map(|(spec, _)| match spec {
            JobSpec::LoopSim {
                iterations,
                cost,
                schedule,
                threads,
            } => Some((
                *iterations as usize,
                cost.to_model(),
                schedule.to_schedule(),
                *threads as usize,
            )),
            _ => None,
        })
        .collect();
    let assignments = tracer.layer("parallel_rt.plan", "replay", unit, || {
        params
            .iter()
            .map(|(n, cost, schedule, threads)| plan_assignment(*n, cost, *schedule, *threads))
            .collect::<Vec<_>>()
    });
    let programs = tracer.layer("parallel_rt.lower", "replay", unit, || {
        assignments
            .iter()
            .zip(&params)
            .map(|(a, (_, cost, _, _))| lower_programs(a, cost, opts.fork_overhead, Lowering::Rle))
            .collect::<Vec<_>>()
    });
    let registries: Vec<obs::Registry> = params.iter().map(|_| obs::Registry::new()).collect();
    let cycles = tracer.layer("pi_sim.machine_run", "replay", unit, || {
        programs
            .into_iter()
            .zip(&registries)
            .map(|(p, registry)| {
                Machine::new(opts.machine)
                    .run_with_metrics(p, registry)
                    .total_cycles
            })
            .collect::<Vec<_>>()
    });
    black_box(tracer.layer("obs.snapshot_json", "replay", unit, || {
        registries
            .iter()
            .map(|r| r.snapshot().to_json_with_digest().len())
            .sum::<usize>()
    }));
    // The payload `exec` renders carries the machine's cycle count.
    let wrong = payloads
        .iter()
        .zip(&cycles)
        .filter(|(payload, cycles)| {
            !payload
                .lines()
                .any(|line| line == format!("cycles: {cycles}"))
        })
        .count()
        + loops.len().abs_diff(payloads.len());
    (cycles.iter().sum(), wrong)
}

/// Computes the pin of `seed` from a served semester (the table in
/// `pins.rs` is this function's output at the parent commit).
pub fn compute_pin(seed: u64) -> SemesterPin {
    let inputs = generate(seed);
    let mut pass = Pass::default();
    serve_semester(&inputs, &cluster_config(WARM_L2_TOTAL), true, &mut pass)
        .expect("semester served")
}
