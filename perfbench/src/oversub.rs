//! `os_oversub`: the paper's oversubscription question run as `pbl-os`
//! cells. A cell is P copies of `os::study::oversub_worker` on C cores
//! under one scheduler; `Os::run` simulates it to completion.
//!
//! The sweep covers C ∈ {2, 4}, P ∈ {C, C+1, 2C, 4C, 8C, 16C}, the
//! three schedulers and a short 5000-cycle timeslice, plus the paper's
//! own cells (C = 4, P ∈ {4, 5, 8}, default timeslice) whose digests
//! `BENCH_os.json` pins. Every cell is deterministic, so every cell is
//! pinned; the workload seed only fixes the order cells run in.
//!
//! Closed loop over units: one unit is one cell.

use os::study::{oversub_workload, SchedKind};
use os::{Os, OsConfig, OsReport, Pcb, ProcProgram};
use pi_sim::event::Cycles;
use stats::rng::Xoshiro256;

use crate::harness::{guarded, median, Budget, Pass, Report, Stopwatch, SETUP_REPS};
use crate::pins;
use crate::tracer::{close, Tracer, REPLAY, UNIT};

/// The sweep's short timeslice in cycles.
pub const SHORT_SLICE: Cycles = 5_000;

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Cores C.
    pub cores: usize,
    /// Processes P.
    pub procs: usize,
    /// Scheduler.
    pub kind: SchedKind,
    /// Scheduler quantum in cycles.
    pub timeslice: Cycles,
}

impl Cell {
    fn config(&self) -> OsConfig {
        let mut cfg = OsConfig::pi_with_cores(self.cores);
        cfg.timeslice = self.timeslice;
        cfg
    }
}

/// Every cell, in canonical order: the paper cells, then the sweep.
pub fn cells() -> Vec<Cell> {
    let paper_slice = OsConfig::pi().timeslice;
    let mut out = Vec::new();
    for procs in [4, 5, 8] {
        for kind in SchedKind::ALL {
            out.push(Cell {
                cores: 4,
                procs,
                kind,
                timeslice: paper_slice,
            });
        }
    }
    for cores in [2, 4] {
        for procs in [
            cores,
            cores + 1,
            2 * cores,
            4 * cores,
            8 * cores,
            16 * cores,
        ] {
            for kind in SchedKind::ALL {
                out.push(Cell {
                    cores,
                    procs,
                    kind,
                    timeslice: SHORT_SLICE,
                });
            }
        }
    }
    out
}

/// A cell ready to run: its machine, its processes and the digest its
/// report must have.
struct Prepared {
    cell: Cell,
    os: Os,
    procs: Vec<(ProcProgram, u8)>,
    pin: u64,
}

/// The cells in the order workload seed `seed` runs them (a seeded
/// Fisher–Yates shuffle of [`cells`]), each built and paired with its
/// pin.
fn prepare(seed: u64) -> Vec<Prepared> {
    let mut all: Vec<(Cell, u64)> = cells().into_iter().zip(pins::OS_CELLS).collect();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    for i in (1..all.len()).rev() {
        all.swap(i, rng.next_below(i + 1));
    }
    all.into_iter()
        .map(|(cell, pin)| Prepared {
            os: Os::new(cell.config()),
            procs: oversub_workload(cell.procs),
            cell,
            pin,
        })
        .collect()
}

fn run_cell(p: &Prepared) -> OsReport {
    p.os.run(p.procs.clone(), p.cell.kind.make())
}

/// Median CPU set-up time: building every cell's machine and processes and
/// one warm-up pass over the sweep, repeated [`SETUP_REPS`] times.
/// Returns the prepared cells and whether the warm-up matched its pins.
fn setup(seed: u64) -> (f64, Vec<Prepared>, bool) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut prepared = Vec::new();
    let mut ok = true;
    for _ in 0..SETUP_REPS {
        let watch = Stopwatch::start();
        prepared = prepare(seed);
        for p in &prepared {
            ok &= guarded(|| run_cell(p).digest()) == Some(p.pin);
        }
        times.push(watch.cpu_ms() / 1e3);
    }
    (median(&times), prepared, ok)
}

/// Runs cells in order, cycling, until the budget closes or
/// `max_units` cells are done.
fn measure(cells: &[Prepared], budget: &Budget, max_units: usize, pass: &mut Pass) {
    let mut k = 0usize;
    while k < max_units && budget.more(pass.units as usize) {
        let key = k % cells.len();
        let p = &cells[key];
        let watch = Stopwatch::start();
        let report = guarded(|| run_cell(p));
        let lap = watch.lap_ms();
        match report {
            Some(r) if r.digest() == p.pin => {
                let cycles = r.makespan as f64;
                pass.unit(key as u64, lap, cycles, cycles);
            }
            _ => pass.failed_unit(1.0),
        }
        k += 1;
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let (setup_s, cells, warm_ok) = setup(seed);
    let mut report = Report::default();
    report.metrics.set("setup_s", setup_s);
    let budget = Budget::start(seconds);
    let mut pass = Pass::default();
    measure(&cells, &budget, usize::MAX, &mut pass);
    report.notes.push(format!(
        "ran {} cells ({} per sweep), every report checked against its pinned digest",
        pass.units,
        cells.len()
    ));
    report.notes.push(pass.wall_note());
    report.correct = warm_ok && pass.units_failed == 0;
    report.attempted = pass.units;
    report.failed = pass.units_failed;
    pass.end_to_end(&mut report.metrics);
    report
}

/// Replays the run queue's enqueue/pick/charge churn of a cell: its P
/// processes cycle through a fresh scheduler of its kind for as many
/// picks as the cell made context switches (at least P). Returns the
/// picks made.
fn replay_sched(p: &Prepared, switches: u64) -> u64 {
    let mut sched = p.cell.kind.make();
    let mut pcbs: Vec<Pcb> = (0..p.cell.procs)
        .map(|i| Pcb::new(i as u32, None, ProcProgram::new(), (i % 2) as u8))
        .collect();
    for pcb in &pcbs {
        sched.enqueue(pcb);
    }
    let picks = switches.max(p.cell.procs as u64);
    for _ in 0..picks {
        let pid = sched.pick().expect("the queue never drains");
        let pcb = &mut pcbs[pid as usize];
        sched.charge(pcb, p.cell.timeslice);
        sched.enqueue(pcb);
    }
    picks
}

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, seconds: f64, trace_file: &str) -> Report {
    let (_, cells, warm_ok) = setup(seed);
    let mut report = Report::default();

    // One untraced sweep for the tracing overhead.
    let mut untraced = Pass::default();
    measure(&cells, &Budget::start(0.0), cells.len(), &mut untraced);

    let budget = Budget::start(seconds);
    let mut tracer = Tracer::new();
    let mut cell_ms = Vec::new();
    let mut failures = untraced.units_failed;
    let mut totals = [0u64; 4];
    let mut picks = 0u64;
    let mut unit = 0u64;
    while unit < cells.len() as u64 || !budget.window_closed() {
        let p = &cells[unit as usize % cells.len()];
        let start = tracer.now();
        let r = tracer.layer("os.run", "cell", unit, || run_cell(p));
        let end = tracer.now();
        tracer.unit(UNIT, "cell", unit, start, end);
        cell_ms.push((end - start) as f64 / 1e6);
        failures += u64::from(r.digest() != p.pin);
        for (total, v) in totals.iter_mut().zip([
            r.context_switches,
            r.involuntary_preemptions,
            r.syscalls,
            r.makespan,
        ]) {
            *total += v;
        }
        let replay_start = tracer.now();
        picks += tracer.layer("os.sched_pick", "replay", unit, || {
            replay_sched(p, r.context_switches)
        });
        tracer.unit(REPLAY, "replay", unit, replay_start, tracer.now());
        unit += 1;
    }

    report.notes.push(format!("traced {unit} cells"));
    let (times, attributed) = close(
        tracer,
        trace_file,
        &["os.run"],
        &cell_ms,
        &untraced,
        &mut report,
    );
    let units = unit.max(1) as f64;
    let m = &mut report.metrics;
    m.set("os.run_ms", times.layer_ns("os.run") as f64 / 1e6 / units);
    m.set(
        "os.sched_pick_ns",
        times.layer_ns("os.sched_pick") as f64 / picks.max(1) as f64,
    );
    for (name, total) in [
        "os.context_switches",
        "os.involuntary_preemptions",
        "os.syscalls",
        "os.sim_cycles",
    ]
    .into_iter()
    .zip(totals)
    {
        m.set(name, total as f64 / units);
    }
    report.correct = attributed && warm_ok && failures == 0;
    report.attempted = unit;
    report.failed = failures.min(unit);
    report
}

/// Every cell's report digest in [`cells`] order (the table in
/// `pins.rs` is this function's output at the parent commit).
pub fn compute_pins() -> Vec<u64> {
    cells()
        .iter()
        .map(|cell| {
            Os::new(cell.config())
                .run(oversub_workload(cell.procs), cell.kind.make())
                .digest()
        })
        .collect()
}
