//! The simulated backend: lowers work-shared loops onto the
//! deterministic [`pi_sim`] machine so scheduling and speedup behaviour
//! can be measured in virtual time, independent of the host (this build
//! host has a single core, so real-thread timing cannot show the
//! paper's 4-core shapes; the simulator can).

use pi_sim::event::Cycles;
use pi_sim::machine::{Machine, MachineConfig, RunReport};
use pi_sim::program::Program;

use crate::schedule::{guided_chunks, static_block, static_chunks, Schedule};

/// Per-iteration cost model for a simulated loop body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostModel {
    /// Every iteration costs the same — the patternlets' uniform loops.
    Uniform(Cycles),
    /// Cost grows linearly with the index: `base + slope * i`. Models
    /// triangular workloads where static scheduling load-imbalances.
    Linear {
        /// Cost of iteration 0.
        base: Cycles,
        /// Additional cycles per index step.
        slope: Cycles,
    },
    /// Cost alternates: even indices cost `even`, odd cost `odd`.
    /// A worst case for chunked static schedules.
    Alternating {
        /// Cost of even iterations.
        even: Cycles,
        /// Cost of odd iterations.
        odd: Cycles,
    },
}

impl CostModel {
    /// Cost of iteration `i`.
    pub fn cost(&self, i: usize) -> Cycles {
        match *self {
            CostModel::Uniform(c) => c,
            CostModel::Linear { base, slope } => base + slope * i as Cycles,
            CostModel::Alternating { even, odd } => {
                if i.is_multiple_of(2) {
                    even
                } else {
                    odd
                }
            }
        }
    }

    /// Total cost of `iterations` iterations, in closed form (O(1)):
    /// uniform loops are a product, linear ones an arithmetic series,
    /// alternating ones two products. Equals
    /// `(0..iterations).map(|i| self.cost(i)).sum()` exactly.
    pub fn total(&self, iterations: usize) -> Cycles {
        let n = iterations as Cycles;
        match *self {
            CostModel::Uniform(c) => c * n,
            CostModel::Linear { base, slope } => {
                // Arithmetic series: sum slope*i = slope * n(n-1)/2.
                // One of n, n-1 is even, so the division is exact.
                base * n + slope * (n * n.saturating_sub(1) / 2)
            }
            CostModel::Alternating { even, odd } => even * n.div_ceil(2) + odd * (n / 2),
        }
    }

    /// Total cost of iterations `0..i` — the prefix sum, in O(1).
    pub fn prefix_cost(&self, i: usize) -> Cycles {
        self.total(i)
    }

    /// Cost of the contiguous chunk `start..end`, in O(1) via prefix
    /// sums.
    pub fn chunk_cost(&self, chunk: &std::ops::Range<usize>) -> Cycles {
        debug_assert!(chunk.start <= chunk.end, "malformed chunk {chunk:?}");
        self.prefix_cost(chunk.end) - self.prefix_cost(chunk.start)
    }
}

/// Options for the simulated runs.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// The simulated machine (defaults to the quad-core Pi).
    pub machine: MachineConfig,
    /// Cycles charged per forked thread before useful work, modelling
    /// `#pragma omp parallel`'s thread-management overhead. This is what
    /// makes tiny loops slower in parallel — the crossover the course
    /// has students discover.
    pub fork_overhead: Cycles,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            machine: MachineConfig::pi(),
            fork_overhead: 20_000,
        }
    }
}

/// Result of a simulated parallel loop.
#[derive(Debug, Clone)]
pub struct SimLoopOutcome {
    /// Virtual makespan in cycles.
    pub cycles: Cycles,
    /// Iterations executed per thread (load balance evidence).
    pub iterations_per_thread: Vec<usize>,
    /// The underlying machine report.
    pub report: RunReport,
}

impl SimLoopOutcome {
    fn new(assignment: &[Vec<std::ops::Range<usize>>], report: RunReport) -> Self {
        SimLoopOutcome {
            cycles: report.total_cycles,
            iterations_per_thread: iterations_per_thread(assignment),
            report,
        }
    }

    /// Largest minus smallest per-thread iteration count.
    pub fn imbalance(&self) -> usize {
        let max = self
            .iterations_per_thread
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        let min = self
            .iterations_per_thread
            .iter()
            .copied()
            .min()
            .unwrap_or(0);
        max - min
    }
}

/// Chunk assignment per thread for any schedule, computed exactly for
/// static policies and via least-loaded-first greedy self-scheduling for
/// dynamic/guided (the deterministic analogue of "whichever thread is
/// free grabs the next chunk").
pub fn plan_assignment(
    iterations: usize,
    cost: &CostModel,
    schedule: Schedule,
    threads: usize,
) -> Vec<Vec<std::ops::Range<usize>>> {
    assert!(threads > 0);
    schedule.validate();
    match schedule {
        Schedule::StaticBlock => (0..threads)
            .map(|t| {
                let r = static_block(0..iterations, threads, t);
                if r.is_empty() {
                    vec![]
                } else {
                    vec![r]
                }
            })
            .collect(),
        Schedule::StaticChunk(c) => (0..threads)
            .map(|t| static_chunks(0..iterations, threads, t, c))
            .collect(),
        Schedule::Dynamic(c) => {
            let mut chunks = Vec::new();
            let mut start = 0;
            while start < iterations {
                chunks.push(start..(start + c).min(iterations));
                start += c;
            }
            greedy_assign(chunks, cost, threads)
        }
        Schedule::Guided(min_chunk) => greedy_assign(
            guided_chunks(0..iterations, threads, min_chunk),
            cost,
            threads,
        ),
    }
}

/// Iterations each thread of `assignment` runs.
fn iterations_per_thread(assignment: &[Vec<std::ops::Range<usize>>]) -> Vec<usize> {
    assignment
        .iter()
        .map(|chunks| chunks.iter().map(|c| c.len()).sum())
        .collect()
}

/// Assigns chunks in order to the least-loaded thread (ties to the
/// lowest id) — deterministic self-scheduling.
fn greedy_assign(
    chunks: Vec<std::ops::Range<usize>>,
    cost: &CostModel,
    threads: usize,
) -> Vec<Vec<std::ops::Range<usize>>> {
    let mut load = vec![0u128; threads];
    let mut out = vec![Vec::new(); threads];
    for chunk in chunks {
        let chunk_cost = cost.chunk_cost(&chunk);
        let (t, _) = load
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .expect("threads > 0");
        load[t] += chunk_cost as u128;
        out[t].push(chunk);
    }
    out
}

/// How a planned chunk assignment is turned into machine [`Program`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lowering {
    /// One `Compute` op per loop iteration — the reference lowering.
    /// Program size is O(iterations); exists as the oracle the
    /// run-length-encoded path is verified against.
    PerIteration,
    /// One run-length-encoded block per chunk: uniform chunks become a
    /// single `ComputeRepeat`, other cost models a single `Compute` of
    /// the chunk's closed-form total. Program size is O(chunks)
    /// regardless of the iteration count, and because compute is
    /// continuously interruptible the machine's timing is bit-identical
    /// to [`Lowering::PerIteration`].
    Rle,
}

/// Lowers a chunk assignment to one [`Program`] per thread.
pub fn lower_programs(
    assignment: &[Vec<std::ops::Range<usize>>],
    cost: &CostModel,
    fork_overhead: Cycles,
    lowering: Lowering,
) -> Vec<Program> {
    assignment
        .iter()
        .map(|chunks| {
            let mut p = Program::new().compute(fork_overhead);
            for chunk in chunks {
                match lowering {
                    Lowering::PerIteration => {
                        for i in chunk.clone() {
                            p = p.compute(cost.cost(i));
                        }
                    }
                    Lowering::Rle => match *cost {
                        CostModel::Uniform(c) => {
                            p = p.compute_repeat(c, chunk.len() as u64);
                        }
                        _ => {
                            let total = cost.chunk_cost(chunk);
                            if total > 0 {
                                p = p.compute(total);
                            }
                        }
                    },
                }
            }
            p
        })
        .collect()
}

/// Plans the loop and lowers the plan to one program per thread: the
/// step every `simulate_parallel_loop*` entry point shares.
fn plan_and_lower(
    iterations: usize,
    cost: &CostModel,
    schedule: Schedule,
    threads: usize,
    opts: &SimOptions,
    lowering: Lowering,
) -> (Vec<Vec<std::ops::Range<usize>>>, Vec<Program>) {
    let assignment = plan_assignment(iterations, cost, schedule, threads);
    let programs = lower_programs(&assignment, cost, opts.fork_overhead, lowering);
    (assignment, programs)
}

/// Simulates the loop run by `threads` software threads on the
/// configured machine, using the O(chunks) run-length-encoded lowering.
pub fn simulate_parallel_loop(
    iterations: usize,
    cost: &CostModel,
    schedule: Schedule,
    threads: usize,
    opts: &SimOptions,
) -> SimLoopOutcome {
    simulate_parallel_loop_lowered(iterations, cost, schedule, threads, opts, Lowering::Rle)
}

/// [`simulate_parallel_loop`] additionally recording metrics into
/// `registry`: the planned chunk-size distribution under
/// `parallel_rt/chunks/<policy>` and the machine's `pi_sim/*` metrics
/// (per-core busy spans, bus contention, cache counters, event-queue
/// depth). All recorded values are virtual-time or counts, so the
/// snapshot is as deterministic as the outcome.
pub fn simulate_parallel_loop_with_metrics(
    iterations: usize,
    cost: &CostModel,
    schedule: Schedule,
    threads: usize,
    opts: &SimOptions,
    registry: &obs::Registry,
) -> SimLoopOutcome {
    let (assignment, programs) =
        plan_and_lower(iterations, cost, schedule, threads, opts, Lowering::Rle);
    let chunk_sizes = registry.histogram(
        &format!("parallel_rt/chunks/{}", schedule.label()),
        obs::Domain::Virtual,
        &crate::forloop::CHUNK_SIZE_EDGES,
    );
    // One bulk record per run of equal chunk sizes.
    let mut sizes = assignment
        .iter()
        .flatten()
        .map(|c| c.len() as u64)
        .peekable();
    while let Some(size) = sizes.next() {
        let mut n = 1;
        while sizes.next_if_eq(&size).is_some() {
            n += 1;
        }
        chunk_sizes.record_n(size, n);
    }
    let report = Machine::new(opts.machine).run_with_metrics(programs, registry);
    SimLoopOutcome::new(&assignment, report)
}

/// [`simulate_parallel_loop`] additionally recording the deterministic
/// event trace: the machine's per-core slice spans and per-thread wait
/// spans, plus a `dispatch` lane of chunk-dispatch instants at each
/// chunk's *planned* start time (fork overhead plus the closed-form
/// cost of the chunks before it on the same thread — the uncontended
/// schedule the runtime intended, against which the machine lanes show
/// what actually happened).
pub fn simulate_parallel_loop_traced(
    iterations: usize,
    cost: &CostModel,
    schedule: Schedule,
    threads: usize,
    opts: &SimOptions,
    tcfg: &obs::trace::TraceConfig,
) -> (SimLoopOutcome, obs::trace::Trace) {
    let (assignment, programs) =
        plan_and_lower(iterations, cost, schedule, threads, opts, Lowering::Rle);
    let (report, mut trace) = Machine::new(opts.machine).run_with_trace(programs, tcfg);
    let mut dispatch =
        obs::trace::TraceBuffer::new(trace.next_lane(), "dispatch", tcfg.capacity_per_lane);
    for (t, chunks) in assignment.iter().enumerate() {
        let mut planned = opts.fork_overhead;
        for chunk in chunks {
            dispatch.instant(
                planned,
                format!("t{t} {}..{}", chunk.start, chunk.end),
                obs::trace::category::CHUNK,
                chunk.len() as u64,
            );
            planned += cost.chunk_cost(chunk);
        }
    }
    trace.absorb(dispatch);
    (SimLoopOutcome::new(&assignment, report), trace)
}

/// [`simulate_parallel_loop`] with an explicit lowering choice.
pub fn simulate_parallel_loop_lowered(
    iterations: usize,
    cost: &CostModel,
    schedule: Schedule,
    threads: usize,
    opts: &SimOptions,
    lowering: Lowering,
) -> SimLoopOutcome {
    let (assignment, programs) =
        plan_and_lower(iterations, cost, schedule, threads, opts, lowering);
    let report = Machine::new(opts.machine).run(programs);
    SimLoopOutcome::new(&assignment, report)
}

/// Cumulative chunk costs for one thread of a lowered loop: `cum[j]` is
/// the total cost of that thread's first `j` chunks, so any chunk's
/// cost — and any uniform scaling of it — is two lookups away. Shared
/// by every scenario of a [`LoweredLoop`] sweep; the cost model itself
/// is never consulted again after the table is built.
#[derive(Debug, Clone)]
pub struct PrefixTable {
    cum: Vec<Cycles>,
}

impl PrefixTable {
    fn build(chunks: &[std::ops::Range<usize>], cost: &CostModel) -> Self {
        let mut cum = Vec::with_capacity(chunks.len() + 1);
        cum.push(0);
        for chunk in chunks {
            let last = *cum.last().expect("non-empty");
            cum.push(last + cost.chunk_cost(chunk));
        }
        PrefixTable { cum }
    }

    /// Number of chunks covered.
    pub fn chunks(&self) -> usize {
        self.cum.len() - 1
    }

    /// Cost of chunk `j`.
    pub fn chunk_cost(&self, j: usize) -> Cycles {
        self.cum[j + 1] - self.cum[j]
    }

    /// Total cost of every chunk on this thread.
    pub fn total(&self) -> Cycles {
        *self.cum.last().expect("non-empty")
    }
}

/// One parameter point of a [`LoweredLoop`] sweep: the machine to run
/// on, a uniform integer scaling of every iteration cost, and the fork
/// overhead. Scaling all costs by the same positive factor preserves
/// the greedy self-scheduling assignment exactly (the argmin over
/// scaled loads, ties included, is the argmin over the originals), so a
/// plan lowered once is valid for every point.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The simulated machine for this scenario.
    pub machine: MachineConfig,
    /// Positive integer factor applied to every iteration's cost.
    pub cost_scale: Cycles,
    /// Cycles charged per forked thread before useful work.
    pub fork_overhead: Cycles,
}

impl SweepPoint {
    /// The unscaled point matching `opts` — the identity scenario.
    pub fn base(opts: &SimOptions) -> Self {
        SweepPoint {
            machine: opts.machine,
            cost_scale: 1,
            fork_overhead: opts.fork_overhead,
        }
    }
}

/// A parallel loop planned and lowered **once**, then fast-forwarded
/// through any number of [`SweepPoint`] scenarios. Planning (the greedy
/// chunk assignment) and per-chunk closed-form costing happen in
/// [`LoweredLoop::plan`]; each [`LoweredLoop::run`] only rebuilds the
/// O(chunks) run-length-encoded programs from the shared
/// [`PrefixTable`]s and runs the machine — the per-scenario cost of the
/// naive loop (re-plan, re-cost, re-lower) is paid a single time for
/// the whole sweep.
#[derive(Debug, Clone)]
pub struct LoweredLoop {
    cost: CostModel,
    assignment: Vec<Vec<std::ops::Range<usize>>>,
    iterations_per_thread: Vec<usize>,
    prefix: Vec<PrefixTable>,
}

impl LoweredLoop {
    /// Plans `iterations` of `cost` under `schedule` across `threads`
    /// and builds the shared prefix tables.
    pub fn plan(iterations: usize, cost: &CostModel, schedule: Schedule, threads: usize) -> Self {
        let assignment = plan_assignment(iterations, cost, schedule, threads);
        let iterations_per_thread = iterations_per_thread(&assignment);
        let prefix = assignment
            .iter()
            .map(|chunks| PrefixTable::build(chunks, cost))
            .collect();
        LoweredLoop {
            cost: *cost,
            assignment,
            iterations_per_thread,
            prefix,
        }
    }

    /// The shared per-thread prefix tables.
    pub fn prefix_tables(&self) -> &[PrefixTable] {
        &self.prefix
    }

    /// Run-length-encoded programs for one sweep point, built from the
    /// prefix tables alone. Uniform chunks become `ComputeRepeat` of the
    /// scaled iteration cost; every other model becomes one `Compute` of
    /// the scaled chunk total — exactly what [`lower_programs`] emits
    /// for the scaled cost model, because every closed-form chunk cost
    /// is linear in the model's parameters.
    fn programs(&self, point: &SweepPoint) -> Vec<Program> {
        assert!(point.cost_scale > 0, "cost_scale must be positive");
        self.assignment
            .iter()
            .zip(&self.prefix)
            .map(|(chunks, prefix)| {
                let mut p = Program::new().compute(point.fork_overhead);
                for (j, chunk) in chunks.iter().enumerate() {
                    match self.cost {
                        CostModel::Uniform(c) => {
                            p = p.compute_repeat(c * point.cost_scale, chunk.len() as u64);
                        }
                        _ => {
                            let total = prefix.chunk_cost(j) * point.cost_scale;
                            if total > 0 {
                                p = p.compute(total);
                            }
                        }
                    }
                }
                p
            })
            .collect()
    }

    /// Simulates one sweep point. Equivalent, cycle for cycle, to
    /// [`simulate_parallel_loop_lowered`] with the scaled cost model and
    /// this point's machine and fork overhead (the equivalence the
    /// `sweep_matches_full_simulation` test pins down).
    pub fn run(&self, point: &SweepPoint) -> SimLoopOutcome {
        let programs = self.programs(point);
        let report = Machine::new(point.machine).run(programs);
        SimLoopOutcome {
            cycles: report.total_cycles,
            iterations_per_thread: self.iterations_per_thread.clone(),
            report,
        }
    }

    /// Simulates every point of the sweep in order.
    pub fn sweep(&self, points: &[SweepPoint]) -> Vec<SimLoopOutcome> {
        points.iter().map(|p| self.run(p)).collect()
    }
}

impl CostModel {
    /// This model with every iteration cost multiplied by `k` — the
    /// model a [`SweepPoint`] with `cost_scale = k` simulates.
    pub fn scaled(&self, k: Cycles) -> CostModel {
        match *self {
            CostModel::Uniform(c) => CostModel::Uniform(c * k),
            CostModel::Linear { base, slope } => CostModel::Linear {
                base: base * k,
                slope: slope * k,
            },
            CostModel::Alternating { even, odd } => CostModel::Alternating {
                even: even * k,
                odd: odd * k,
            },
        }
    }
}

/// Simulates the sequential baseline (no fork overhead, one thread).
pub fn simulate_sequential_loop(iterations: usize, cost: &CostModel, opts: &SimOptions) -> Cycles {
    let machine = Machine::new(MachineConfig {
        cores: 1,
        ..opts.machine
    });
    machine
        .run_sequential(Program::new().compute(cost.total(iterations).max(1)))
        .total_cycles
}

/// How per-thread partial results are combined in a simulated reduction —
/// the ablation DESIGN.md calls out (serial vs tree vs atomic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionStyle {
    /// Each thread writes one partial; the master combines serially.
    SerialCombine,
    /// Pairwise tree combine with barriers between levels.
    Tree,
    /// Every iteration does an atomic RMW on one shared accumulator.
    AtomicPerIteration,
}

/// Simulates a sum reduction over `iterations` uniform iterations of
/// `iter_cost` cycles, using `style`, returning the virtual makespan.
pub fn simulate_reduction(
    iterations: usize,
    iter_cost: Cycles,
    threads: usize,
    style: ReductionStyle,
    opts: &SimOptions,
) -> Cycles {
    let programs = reduction_programs(iterations, iter_cost, threads, style, opts);
    Machine::new(opts.machine).run(programs).total_cycles
}

/// [`simulate_reduction`] additionally recording the deterministic
/// event trace — the barrier-wait spans between tree-combine rounds
/// are where a reduction's lost time becomes visible.
pub fn simulate_reduction_traced(
    iterations: usize,
    iter_cost: Cycles,
    threads: usize,
    style: ReductionStyle,
    opts: &SimOptions,
    tcfg: &obs::trace::TraceConfig,
) -> (Cycles, obs::trace::Trace) {
    let programs = reduction_programs(iterations, iter_cost, threads, style, opts);
    let (report, trace) = Machine::new(opts.machine).run_with_trace(programs, tcfg);
    (report.total_cycles, trace)
}

fn reduction_programs(
    iterations: usize,
    iter_cost: Cycles,
    threads: usize,
    style: ReductionStyle,
    opts: &SimOptions,
) -> Vec<Program> {
    assert!(threads > 0);
    let combine_cost: Cycles = 50; // one partial-combine step
    let acc_addr = 0x9000_0000u64;
    (0..threads)
        .map(|t| {
            let my_iters = static_block(0..iterations, threads, t).len();
            let mut p = Program::new().compute(opts.fork_overhead);
            match style {
                ReductionStyle::SerialCombine => {
                    p = p.compute(my_iters as Cycles * iter_cost);
                    // Everyone publishes a partial, master combines after
                    // the barrier.
                    p = p.write(0x8000_0000 + t as u64 * 64);
                    p = p.barrier(0, threads as u32);
                    if t == 0 {
                        for peer in 0..threads {
                            p = p.read(0x8000_0000 + peer as u64 * 64).compute(combine_cost);
                        }
                    }
                }
                ReductionStyle::Tree => {
                    p = p.compute(my_iters as Cycles * iter_cost);
                    // log2 rounds of pairwise combines with barriers.
                    let mut stride = 1usize;
                    let mut round = 0u32;
                    while stride < threads {
                        p = p.barrier(100 + round, threads as u32);
                        if t % (2 * stride) == 0 && t + stride < threads {
                            p = p
                                .read(0x8000_0000 + (t + stride) as u64 * 64)
                                .compute(combine_cost)
                                .write(0x8000_0000 + t as u64 * 64);
                        }
                        stride *= 2;
                        round += 1;
                    }
                }
                ReductionStyle::AtomicPerIteration => {
                    for _ in 0..my_iters {
                        p = p.compute(iter_cost).atomic_rmw(acc_addr);
                    }
                }
            }
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_sim::perf::speedup;

    #[test]
    fn metrics_variant_matches_plain_simulation_and_is_deterministic() {
        let cost = CostModel::Linear {
            base: 100,
            slope: 7,
        };
        let opts = SimOptions::default();
        let plain = simulate_parallel_loop(5_000, &cost, Schedule::Guided(8), 4, &opts);
        let run = || {
            let registry = obs::Registry::new();
            let outcome = simulate_parallel_loop_with_metrics(
                5_000,
                &cost,
                Schedule::Guided(8),
                4,
                &opts,
                &registry,
            );
            (outcome, registry.snapshot())
        };
        let (a, snap_a) = run();
        let (b, snap_b) = run();
        assert_eq!(a.cycles, plain.cycles, "observer effect on the makespan");
        assert_eq!(a.iterations_per_thread, plain.iterations_per_thread);
        assert_eq!(b.cycles, plain.cycles);
        assert_eq!(snap_a.to_json(), snap_b.to_json());
        assert!(snap_a
            .metrics
            .iter()
            .any(|m| m.name == "parallel_rt/chunks/guided"));
        assert!(snap_a
            .metrics
            .iter()
            .any(|m| m.name == "pi_sim/cache/l1_hits"));
    }

    #[test]
    fn traced_loop_matches_plain_and_trace_is_byte_stable() {
        let cost = CostModel::Linear {
            base: 100,
            slope: 7,
        };
        let opts = SimOptions::default();
        let tcfg = obs::trace::TraceConfig::default();
        let plain = simulate_parallel_loop(5_000, &cost, Schedule::Guided(8), 4, &opts);
        let (a, ta) =
            simulate_parallel_loop_traced(5_000, &cost, Schedule::Guided(8), 4, &opts, &tcfg);
        let (_, tb) =
            simulate_parallel_loop_traced(5_000, &cost, Schedule::Guided(8), 4, &opts, &tcfg);
        assert_eq!(a.cycles, plain.cycles, "observer effect on the makespan");
        assert_eq!(ta.to_chrome_json(), tb.to_chrome_json());
        // The dispatch lane carries one instant per planned chunk.
        let chunks: usize = plan_assignment(5_000, &cost, Schedule::Guided(8), 4)
            .iter()
            .map(|c| c.len())
            .sum();
        let dispatch_lane = ta
            .lanes
            .iter()
            .find(|l| l.name == "dispatch")
            .expect("dispatch lane")
            .id;
        let dispatched = ta.events.iter().filter(|e| e.lane == dispatch_lane).count();
        assert_eq!(dispatched, chunks);
    }

    #[test]
    fn traced_tree_reduction_shows_barrier_waits() {
        let opts = SimOptions::default();
        let tcfg = obs::trace::TraceConfig::default();
        let plain = simulate_reduction(4_000, 25, 4, ReductionStyle::Tree, &opts);
        let (cycles, trace) =
            simulate_reduction_traced(4_000, 25, 4, ReductionStyle::Tree, &opts, &tcfg);
        assert_eq!(cycles, plain, "observer effect");
        assert!(trace
            .events
            .iter()
            .any(|e| e.category == obs::trace::category::BARRIER_WAIT));
        let analysis = obs::trace::analyze::analyze(&trace);
        assert!(analysis.attribution_is_exact());
        assert!(analysis.critical_cycles > 0);
    }

    #[test]
    fn cost_models_evaluate() {
        assert_eq!(CostModel::Uniform(10).cost(1234), 10);
        assert_eq!(CostModel::Linear { base: 5, slope: 2 }.cost(10), 25);
        assert_eq!(CostModel::Alternating { even: 1, odd: 9 }.cost(2), 1);
        assert_eq!(CostModel::Alternating { even: 1, odd: 9 }.cost(3), 9);
        assert_eq!(CostModel::Uniform(10).total(100), 1_000);
        assert_eq!(CostModel::Linear { base: 0, slope: 1 }.total(5), 10);
    }

    #[test]
    fn closed_form_total_matches_summation() {
        let models = [
            CostModel::Uniform(0),
            CostModel::Uniform(7),
            CostModel::Linear { base: 0, slope: 0 },
            CostModel::Linear { base: 5, slope: 3 },
            CostModel::Linear { base: 0, slope: 11 },
            CostModel::Alternating { even: 2, odd: 9 },
            CostModel::Alternating { even: 9, odd: 0 },
        ];
        for m in models {
            for n in [0usize, 1, 2, 3, 10, 101, 1_000] {
                let summed: Cycles = (0..n).map(|i| m.cost(i)).sum();
                assert_eq!(m.total(n), summed, "{m:?} n={n}");
                assert_eq!(m.prefix_cost(n), summed);
            }
        }
    }

    #[test]
    fn chunk_cost_matches_summation() {
        let m = CostModel::Alternating { even: 3, odd: 8 };
        for chunk in [0..0, 0..7, 3..3, 3..10, 101..257] {
            let summed: Cycles = chunk.clone().map(|i| m.cost(i)).sum();
            assert_eq!(m.chunk_cost(&chunk), summed, "{chunk:?}");
        }
    }

    #[test]
    fn rle_lowering_builds_o_chunks_programs() {
        let cost = CostModel::Uniform(250);
        let assignment = plan_assignment(1_000_000, &cost, Schedule::StaticChunk(1_000), 4);
        let programs = lower_programs(&assignment, &cost, 20_000, Lowering::Rle);
        for (p, chunks) in programs.iter().zip(&assignment) {
            // Fork overhead + one RLE block per chunk.
            assert_eq!(p.len(), 1 + chunks.len());
        }
        let total_units: u64 = programs.iter().map(|p| p.unit_len()).sum();
        assert_eq!(total_units, 1_000_000 + 4, "all iterations represented");
    }

    #[test]
    fn rle_and_per_iteration_lowerings_are_bit_identical() {
        let opts = SimOptions::default();
        for cost in [
            CostModel::Uniform(800),
            CostModel::Linear { base: 10, slope: 4 },
            CostModel::Alternating { even: 30, odd: 700 },
        ] {
            for schedule in [
                Schedule::StaticBlock,
                Schedule::StaticChunk(7),
                Schedule::Dynamic(16),
                Schedule::Guided(3),
            ] {
                for threads in [1usize, 3, 4, 6] {
                    let rle = simulate_parallel_loop_lowered(
                        2_003,
                        &cost,
                        schedule,
                        threads,
                        &opts,
                        Lowering::Rle,
                    );
                    let unit = simulate_parallel_loop_lowered(
                        2_003,
                        &cost,
                        schedule,
                        threads,
                        &opts,
                        Lowering::PerIteration,
                    );
                    assert_eq!(
                        rle.cycles, unit.cycles,
                        "{cost:?} {schedule:?} threads={threads}"
                    );
                    assert_eq!(rle.report.threads, unit.report.threads);
                    assert_eq!(rle.iterations_per_thread, unit.iterations_per_thread);
                    assert_eq!(rle.report.context_switches, unit.report.context_switches);
                }
            }
        }
    }

    #[test]
    fn sweep_matches_full_simulation() {
        // A lowered loop fast-forwarded through machine, cost-scale, and
        // fork-overhead scenarios must reproduce the full re-plan
        // simulation cycle for cycle.
        for cost in [
            CostModel::Uniform(800),
            CostModel::Linear { base: 10, slope: 4 },
            CostModel::Alternating { even: 30, odd: 700 },
        ] {
            for schedule in [
                Schedule::StaticBlock,
                Schedule::Dynamic(16),
                Schedule::Guided(3),
            ] {
                let lowered = LoweredLoop::plan(2_003, &cost, schedule, 4);
                let points = [
                    SweepPoint::base(&SimOptions::default()),
                    SweepPoint {
                        machine: MachineConfig {
                            cores: 2,
                            ..MachineConfig::pi()
                        },
                        cost_scale: 1,
                        fork_overhead: 20_000,
                    },
                    SweepPoint {
                        machine: MachineConfig::pi(),
                        cost_scale: 7,
                        fork_overhead: 20_000,
                    },
                    SweepPoint {
                        machine: MachineConfig::pi(),
                        cost_scale: 3,
                        fork_overhead: 500,
                    },
                ];
                for (outcome, point) in lowered.sweep(&points).iter().zip(&points) {
                    let full = simulate_parallel_loop_lowered(
                        2_003,
                        &cost.scaled(point.cost_scale),
                        schedule,
                        4,
                        &SimOptions {
                            machine: point.machine,
                            fork_overhead: point.fork_overhead,
                        },
                        Lowering::Rle,
                    );
                    assert_eq!(
                        outcome.cycles, full.cycles,
                        "{cost:?} {schedule:?} scale={}",
                        point.cost_scale
                    );
                    assert_eq!(outcome.iterations_per_thread, full.iterations_per_thread);
                    assert_eq!(
                        outcome.report.context_switches,
                        full.report.context_switches
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_tables_mirror_chunk_costs() {
        let cost = CostModel::Linear { base: 5, slope: 3 };
        let lowered = LoweredLoop::plan(1_001, &cost, Schedule::Dynamic(25), 4);
        let assignment = plan_assignment(1_001, &cost, Schedule::Dynamic(25), 4);
        for (table, chunks) in lowered.prefix_tables().iter().zip(&assignment) {
            assert_eq!(table.chunks(), chunks.len());
            for (j, chunk) in chunks.iter().enumerate() {
                assert_eq!(table.chunk_cost(j), cost.chunk_cost(chunk));
            }
            let total: Cycles = chunks.iter().map(|c| cost.chunk_cost(c)).sum();
            assert_eq!(table.total(), total);
        }
    }

    #[test]
    fn scaled_cost_model_scales_every_iteration() {
        for cost in [
            CostModel::Uniform(7),
            CostModel::Linear { base: 5, slope: 3 },
            CostModel::Alternating { even: 2, odd: 9 },
        ] {
            let scaled = cost.scaled(6);
            for i in [0usize, 1, 2, 17] {
                assert_eq!(scaled.cost(i), cost.cost(i) * 6, "{cost:?} i={i}");
            }
        }
    }

    #[test]
    fn plan_covers_every_iteration_once() {
        let cost = CostModel::Uniform(100);
        for schedule in [
            Schedule::StaticBlock,
            Schedule::StaticChunk(3),
            Schedule::Dynamic(5),
            Schedule::Guided(2),
        ] {
            let plan = plan_assignment(101, &cost, schedule, 4);
            let mut all: Vec<usize> = plan.iter().flatten().cloned().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..101).collect::<Vec<_>>(), "{schedule:?}");
        }
    }

    #[test]
    fn four_threads_speed_up_a_big_uniform_loop() {
        let cost = CostModel::Uniform(1_000);
        let opts = SimOptions::default();
        let seq = simulate_sequential_loop(10_000, &cost, &opts);
        let par = simulate_parallel_loop(10_000, &cost, Schedule::StaticBlock, 4, &opts);
        let s = speedup(seq as f64, par.cycles as f64);
        assert!(s > 3.5 && s <= 4.01, "speedup = {s}");
    }

    #[test]
    fn five_threads_on_four_cores_no_better_than_four() {
        // The Assignment 5 question: threads beyond the core count help
        // nothing (and cost context switches).
        let cost = CostModel::Uniform(1_000);
        let opts = SimOptions::default();
        let four = simulate_parallel_loop(10_000, &cost, Schedule::StaticBlock, 4, &opts);
        let five = simulate_parallel_loop(10_000, &cost, Schedule::StaticBlock, 5, &opts);
        assert!(
            five.cycles >= four.cycles,
            "5 threads {} vs 4 threads {}",
            five.cycles,
            four.cycles
        );
    }

    #[test]
    fn tiny_loops_lose_to_fork_overhead() {
        // Crossover: parallelising 10 cheap iterations costs more than
        // running them sequentially.
        let cost = CostModel::Uniform(100);
        let opts = SimOptions::default();
        let seq = simulate_sequential_loop(10, &cost, &opts);
        let par = simulate_parallel_loop(10, &cost, Schedule::StaticBlock, 4, &opts);
        assert!(par.cycles > seq, "fork overhead dominates tiny loops");
    }

    #[test]
    fn dynamic_beats_static_on_skewed_work() {
        // Linear (triangular) cost: static block gives the last thread
        // far more work; dynamic chunks rebalance.
        let cost = CostModel::Linear {
            base: 10,
            slope: 10,
        };
        let opts = SimOptions::default();
        let stat = simulate_parallel_loop(4_000, &cost, Schedule::StaticBlock, 4, &opts);
        let dyn_ = simulate_parallel_loop(4_000, &cost, Schedule::Dynamic(16), 4, &opts);
        assert!(
            dyn_.cycles < stat.cycles,
            "dynamic {} vs static {}",
            dyn_.cycles,
            stat.cycles
        );
    }

    #[test]
    fn chunk_size_interacts_with_alternating_costs() {
        // Alternating heavy/light iterations on 2 threads: chunk(1)
        // assigns all even (light) iterations to thread 0 and all odd
        // (heavy) ones to thread 1 — the worst case — while chunk(2)
        // pairs one heavy with one light per chunk and balances. This is
        // the Assignment 3 lesson that the chunk size, not just the
        // policy, determines load balance.
        let cost = CostModel::Alternating {
            even: 10,
            odd: 1_000,
        };
        let opts = SimOptions::default();
        let c1 = simulate_parallel_loop(1_000, &cost, Schedule::StaticChunk(1), 2, &opts);
        let c2 = simulate_parallel_loop(1_000, &cost, Schedule::StaticChunk(2), 2, &opts);
        assert!(
            c2.cycles < c1.cycles,
            "chunk(2) {} should beat chunk(1) {}",
            c2.cycles,
            c1.cycles
        );
        assert_eq!(c1.iterations_per_thread, vec![500, 500]);
        assert_eq!(c2.iterations_per_thread, vec![500, 500]);
    }

    #[test]
    fn imbalance_metric() {
        let cost = CostModel::Uniform(10);
        let plan =
            simulate_parallel_loop(10, &cost, Schedule::StaticBlock, 4, &SimOptions::default());
        // 10 over 4 → 3,3,2,2.
        assert_eq!(plan.imbalance(), 1);
    }

    #[test]
    fn reduction_styles_rank_as_expected() {
        // Serial/tree combine should beat per-iteration atomics, which
        // serialise on the shared accumulator.
        let opts = SimOptions::default();
        let serial = simulate_reduction(20_000, 100, 4, ReductionStyle::SerialCombine, &opts);
        let tree = simulate_reduction(20_000, 100, 4, ReductionStyle::Tree, &opts);
        let atomic = simulate_reduction(20_000, 100, 4, ReductionStyle::AtomicPerIteration, &opts);
        assert!(serial < atomic, "serial {serial} vs atomic {atomic}");
        assert!(tree < atomic, "tree {tree} vs atomic {atomic}");
    }

    #[test]
    fn sequential_zero_iterations_is_cheap() {
        let c = simulate_sequential_loop(0, &CostModel::Uniform(5), &SimOptions::default());
        assert!(c <= 1);
    }

    #[test]
    fn deterministic_outcomes() {
        let cost = CostModel::Linear { base: 3, slope: 7 };
        let opts = SimOptions::default();
        let a = simulate_parallel_loop(999, &cost, Schedule::Guided(2), 4, &opts);
        let b = simulate_parallel_loop(999, &cost, Schedule::Guided(2), 4, &opts);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.iterations_per_thread, b.iterations_per_thread);
    }
}
