//! The simulated machine: cores, an OS-style round-robin scheduler,
//! locks, barriers, the cache hierarchy, and virtual-time accounting.
//!
//! [`Machine::run`] takes one [`Program`] per software thread, schedules
//! them over the configured number of hardware cores (time-slicing when
//! oversubscribed, as in the course's "increase the number of threads to
//! 5" question on a 4-core Pi), and returns a [`RunReport`] of virtual
//! cycles — deterministic on any host.

use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};

use obs::trace::{category, Trace, TraceConfig, TraceRecorder};

use crate::cache::{CacheStats, Hierarchy, HitLevel};
use crate::event::Cycles;
use crate::program::{Op, Program};
use crate::trace::ExecutionTrace;

/// Tunable machine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of hardware cores.
    pub cores: usize,
    /// Scheduler time slice in cycles.
    pub quantum: Cycles,
    /// Cost of switching a core between different threads.
    pub context_switch: Cycles,
    /// L1 hit latency.
    pub l1_latency: Cycles,
    /// L2 hit latency.
    pub l2_latency: Cycles,
    /// Base main-memory latency.
    pub memory_latency: Cycles,
    /// Extra cost of an atomic read-modify-write.
    pub rmw_penalty: Cycles,
    /// Cost of an uncontended lock acquire/release.
    pub lock_overhead: Cycles,
    /// Extra memory latency per additional busy core (bus contention):
    /// effective = base * (1 + factor * (busy − 1)).
    pub contention_factor: f64,
    /// Maximum memory operations simulated per scheduling event. Smaller
    /// values interleave concurrent access streams more finely (needed
    /// for coherence ping-pong fidelity) at the cost of more events.
    pub mem_ops_per_slice: u32,
}

impl MachineConfig {
    /// A Raspberry Pi 3-like quad-core configuration.
    pub fn pi() -> Self {
        MachineConfig {
            cores: 4,
            quantum: 50_000,
            context_switch: 1_000,
            l1_latency: 1,
            l2_latency: 12,
            memory_latency: 60,
            rmw_penalty: 20,
            lock_overhead: 10,
            contention_factor: 0.3,
            mem_ops_per_slice: 4,
        }
    }

    /// Same machine restricted to one core (for sequential baselines).
    pub fn pi_single_core() -> Self {
        MachineConfig {
            cores: 1,
            ..Self::pi()
        }
    }

    /// Pi configuration with an arbitrary core count.
    pub fn pi_with_cores(cores: usize) -> Self {
        MachineConfig {
            cores,
            ..Self::pi()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Ready,
    Running,
    BlockedOnLock(u32),
    BlockedOnBarrier(u32),
    Done,
}

#[derive(Debug)]
struct Thread {
    program: Program,
    pc: usize,
    /// Cycles still owed on a partially executed Compute op.
    compute_remaining: Cycles,
    /// Accesses already performed inside the RLE memory block at `pc`
    /// (strided blocks charge the cache per access, so a block can span
    /// slice boundaries mid-way).
    block_progress: u64,
    state: ThreadState,
    finish_time: Option<Cycles>,
    compute_cycles: Cycles,
    memory_cycles: Cycles,
    sync_wait: Cycles,
    sched_wait: Cycles,
    block_start: Cycles,
    ready_since: Cycles,
    /// `compute_run[i]`: cycles of the unbroken run of compute ops that
    /// starts at op `i` (0 at any other op and past the end).
    compute_run: Vec<Cycles>,
}

impl Thread {
    /// Compute cycles the thread runs before its next non-compute op or
    /// its end.
    fn compute_ahead(&self) -> Cycles {
        self.compute_remaining
            .saturating_add(self.compute_run[self.pc])
    }

    /// Runs `cycles` (at most [`Thread::compute_ahead`]) of compute,
    /// stopping exactly where back-to-back slices of that total would.
    fn drain_compute(&mut self, mut cycles: Cycles) {
        self.compute_cycles += cycles;
        loop {
            let step = self.compute_remaining.min(cycles);
            self.compute_remaining -= step;
            cycles -= step;
            if cycles == 0 {
                return;
            }
            let op = self.program.ops()[self.pc];
            self.compute_remaining = op
                .compute_cycles()
                .unwrap_or_else(|| unreachable!("drained past the compute run into {op:?}"));
            self.pc += 1;
        }
    }
}

/// Suffix sums of unbroken compute: entry `i` is the cycles of the
/// `Compute`/`ComputeRepeat` ops from op `i` up to the next other op.
fn compute_runs(program: &Program) -> Vec<Cycles> {
    let ops = program.ops();
    let mut runs = vec![0; ops.len() + 1];
    for (i, op) in ops.iter().enumerate().rev() {
        if let Some(cycles) = op.compute_cycles() {
            runs[i] = cycles.saturating_add(runs[i + 1]);
        }
    }
    runs
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SliceEnd {
    Finished,
    QuantumExpired,
    ReachedSync,
    /// The per-slice memory-op budget was exhausted; the thread keeps
    /// its core and continues, but peers' accesses interleave.
    MemoryBatch,
}

/// A core's pending slice end. The dispatcher never gives a core a
/// second slice before its first one ends, so there is one per core.
#[derive(Debug, Clone, Copy)]
struct Slot {
    time: Cycles,
    /// Global insertion counter: equal times pop in insertion order.
    seq: u64,
    thread: usize,
    end: SliceEnd,
}

#[derive(Debug, Default)]
struct Lock {
    holder: Option<usize>,
    waiters: VecDeque<usize>,
    contended_acquires: u64,
}

#[derive(Debug, Default)]
struct Barrier {
    arrived: Vec<usize>,
    episodes: u64,
}

/// Per-thread timing report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadReport {
    /// Virtual time at which the thread finished.
    pub finish_time: Cycles,
    /// Cycles spent computing.
    pub compute_cycles: Cycles,
    /// Cycles spent waiting on memory.
    pub memory_cycles: Cycles,
    /// Cycles spent blocked on locks/barriers.
    pub sync_wait: Cycles,
    /// Cycles spent runnable but waiting for a core.
    pub sched_wait: Cycles,
}

/// Result of a whole run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual makespan: when the last thread finished.
    pub total_cycles: Cycles,
    /// Per-thread details, indexed like the input programs.
    pub threads: Vec<ThreadReport>,
    /// Per-core cache statistics.
    pub cache_stats: Vec<CacheStats>,
    /// Number of lock acquisitions that had to wait.
    pub contended_lock_acquires: u64,
    /// Number of completed barrier episodes.
    pub barrier_episodes: u64,
    /// Number of context switches performed.
    pub context_switches: u64,
}

impl RunReport {
    /// Speedup of this run relative to a baseline makespan.
    pub fn speedup_vs(&self, baseline_cycles: Cycles) -> f64 {
        baseline_cycles as f64 / self.total_cycles as f64
    }
}

/// The simulated quad-core machine.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Creates a machine with the given configuration.
    ///
    /// # Panics
    /// Panics on a zero core count, a zero quantum, a zero
    /// `mem_ops_per_slice`, or a `context_switch` of a whole quantum or
    /// more (every slice would end before doing anything, forever: on
    /// an oversubscribed core each switch uses up the slice it starts).
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.cores >= 1, "need at least one core");
        assert!(config.quantum >= 1, "quantum must be positive");
        assert!(
            config.mem_ops_per_slice >= 1,
            "mem_ops_per_slice must be positive"
        );
        assert!(
            config.context_switch < config.quantum,
            "context_switch must be shorter than the quantum"
        );
        Machine { config }
    }

    /// A Pi-like quad-core machine.
    pub fn pi() -> Self {
        Machine::new(MachineConfig::pi())
    }

    /// The configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs one program per thread to completion; returns the report.
    pub fn run(&self, programs: Vec<Program>) -> RunReport {
        Simulation::new(&self.config, programs).run().0
    }

    /// Like [`Machine::run`], additionally recording observability
    /// metrics into `registry`: per-core busy spans, bus-contention
    /// counters, the pending-slice depth histogram, and the aggregate
    /// cache counters. Everything recorded is in virtual time or pure
    /// event counts, so the metrics are as deterministic as the report.
    pub fn run_with_metrics(&self, programs: Vec<Program>, registry: &obs::Registry) -> RunReport {
        let mut sim = Simulation::new(&self.config, programs);
        sim.attach_metrics(registry);
        sim.run().0
    }

    /// Like [`Machine::run`], additionally recording the full
    /// deterministic event trace: per-core schedule-slice spans,
    /// per-thread barrier/lock/scheduler wait spans, bus-contention
    /// instants, and end-of-run cache counter samples — all in virtual
    /// cycles, so the trace (and its Chrome JSON export) is
    /// byte-identical across hosts and repeated runs.
    pub fn run_with_trace(
        &self,
        programs: Vec<Program>,
        config: &TraceConfig,
    ) -> (RunReport, Trace) {
        let mut sim = Simulation::new(&self.config, programs);
        sim.attach_trace(config);
        let (report, trace) = sim.run();
        (report, trace.expect("tracing was enabled"))
    }

    /// Like [`Machine::run`], additionally recording the schedule as an
    /// [`ExecutionTrace`] (who ran where, when) — a thin view derived
    /// from the [`Machine::run_with_trace`] event stream.
    pub fn run_traced(&self, programs: Vec<Program>) -> (RunReport, ExecutionTrace) {
        let (report, trace) = self.run_with_trace(programs, &TraceConfig::default());
        (report, ExecutionTrace::from_trace(&trace))
    }

    /// Convenience: run a single sequential program.
    pub fn run_sequential(&self, program: Program) -> RunReport {
        self.run(vec![program])
    }
}

/// Metric handles a simulation records into when observability is
/// attached. All values are virtual-time or event counts.
struct SimMetrics {
    registry: obs::Registry,
    /// Pending slice ends at each pop.
    queue_depth: obs::Histogram,
    /// Memory-level accesses issued while another core was also busy.
    contended_accesses: obs::Counter,
    /// Extra cycles charged by the bus-contention model on top of the
    /// uncontended memory latency.
    contention_extra_cycles: obs::Counter,
    /// Busy virtual cycles per core, one span each.
    core_busy: Vec<obs::Span>,
}

/// The counts behind [`SimMetrics`], kept in plain integers during the
/// run and recorded into the metric handles once, when it ends.
struct Tally {
    /// Busy cycles per core.
    busy_cycles: Vec<Cycles>,
    /// Slices that took time, per core.
    busy_slices: Vec<u64>,
    /// Pops, indexed by how many slice ends were pending at the pop.
    pops_at_depth: Vec<u64>,
    contended_accesses: u64,
    contention_extra_cycles: Cycles,
}

impl Tally {
    fn new(cores: usize) -> Self {
        Tally {
            busy_cycles: vec![0; cores],
            busy_slices: vec![0; cores],
            pops_at_depth: vec![0; cores + 1],
            contended_accesses: 0,
            contention_extra_cycles: 0,
        }
    }

    fn record(&self, m: &SimMetrics) {
        for (pending, &pops) in self.pops_at_depth.iter().enumerate() {
            m.queue_depth.record_n(pending as u64, pops);
        }
        m.contended_accesses.add(self.contended_accesses);
        m.contention_extra_cycles.add(self.contention_extra_cycles);
        for (span, (&cycles, &slices)) in m
            .core_busy
            .iter()
            .zip(self.busy_cycles.iter().zip(&self.busy_slices))
        {
            span.record_entries(cycles, slices);
        }
    }
}

/// Trace lanes a simulation records into when tracing is attached: one
/// lane per hardware core (schedule slices, contention instants, cache
/// counters) and one per software thread (wait spans).
struct SimTracer {
    rec: TraceRecorder,
    core_lanes: Vec<u32>,
    thread_lanes: Vec<u32>,
}

impl SimTracer {
    /// Records `tid`'s schedule slice on `core` over `start..end`.
    fn slice(&mut self, core: usize, tid: usize, start: Cycles, end: Cycles) {
        let buf = self.rec.buf(self.core_lanes[core]);
        buf.begin(start, format!("t{tid}"), category::SLICE, tid as u64);
        buf.end(end);
    }
}

struct Simulation<'c> {
    config: &'c MachineConfig,
    threads: Vec<Thread>,
    cores: Vec<Option<usize>>,
    last_on_core: Vec<Option<usize>>,
    ready: VecDeque<usize>,
    locks: HashMap<u32, Lock>,
    barriers: HashMap<u32, Barrier>,
    caches: Hierarchy,
    /// Each core's pending slice end.
    slots: Vec<Option<Slot>>,
    next_seq: u64,
    /// Virtual time: the end of the slice popped last.
    now: Cycles,
    context_switches: u64,
    tally: Tally,
    tracer: Option<SimTracer>,
    metrics: Option<SimMetrics>,
}

impl<'c> Simulation<'c> {
    fn new(config: &'c MachineConfig, programs: Vec<Program>) -> Self {
        let threads = programs
            .into_iter()
            .map(|program| Thread {
                compute_run: compute_runs(&program),
                program,
                pc: 0,
                compute_remaining: 0,
                block_progress: 0,
                state: ThreadState::Ready,
                finish_time: None,
                compute_cycles: 0,
                memory_cycles: 0,
                sync_wait: 0,
                sched_wait: 0,
                block_start: 0,
                ready_since: 0,
            })
            .collect::<Vec<_>>();
        let ready = (0..threads.len()).collect();
        Simulation {
            config,
            threads,
            cores: vec![None; config.cores],
            last_on_core: vec![None; config.cores],
            ready,
            locks: HashMap::new(),
            barriers: HashMap::new(),
            caches: Hierarchy::pi(config.cores),
            slots: vec![None; config.cores],
            next_seq: 0,
            now: 0,
            context_switches: 0,
            tally: Tally::new(config.cores),
            tracer: None,
            metrics: None,
        }
    }

    fn attach_trace(&mut self, config: &TraceConfig) {
        let mut rec = TraceRecorder::new(config);
        let core_lanes = (0..self.config.cores)
            .map(|c| rec.lane(format!("core/{c}")))
            .collect();
        let thread_lanes = (0..self.threads.len())
            .map(|t| rec.lane(format!("thread/{t}")))
            .collect();
        self.tracer = Some(SimTracer {
            rec,
            core_lanes,
            thread_lanes,
        });
    }

    fn attach_metrics(&mut self, registry: &obs::Registry) {
        use obs::Domain::Virtual;
        self.metrics = Some(SimMetrics {
            registry: registry.clone(),
            queue_depth: registry.histogram(
                "pi_sim/events/queue_depth",
                Virtual,
                &[1, 2, 4, 8, 16, 32, 64],
            ),
            contended_accesses: registry.counter("pi_sim/bus/contended_memory_accesses", Virtual),
            contention_extra_cycles: registry
                .counter("pi_sim/bus/contention_extra_cycles", Virtual),
            core_busy: (0..self.config.cores)
                .map(|core| registry.span(&format!("pi_sim/core/{core}/busy"), Virtual))
                .collect(),
        });
    }

    fn busy_cores(&self) -> usize {
        self.cores.iter().filter(|c| c.is_some()).count()
    }

    /// Latency of one memory access for `thread` on `core`, issued at
    /// virtual time `at`.
    fn access_cost(
        &mut self,
        core: usize,
        at: Cycles,
        addr: u64,
        write: bool,
        rmw: bool,
    ) -> Cycles {
        let outcome = self.caches.access(core, addr, write);
        let base = match outcome.level {
            HitLevel::L1 => self.config.l1_latency,
            HitLevel::L2 => self.config.l2_latency,
            HitLevel::Memory => {
                let busy = self.busy_cores().max(1);
                let scaled = self.config.memory_latency as f64
                    * (1.0 + self.config.contention_factor * (busy - 1) as f64);
                let cost = scaled.round() as Cycles;
                if busy > 1 {
                    let extra = cost.saturating_sub(self.config.memory_latency);
                    self.tally.contended_accesses += 1;
                    self.tally.contention_extra_cycles += extra;
                    if let Some(tr) = &mut self.tracer {
                        let lane = tr.core_lanes[core];
                        tr.rec
                            .buf(lane)
                            .instant(at, "contention", category::BUS, extra);
                    }
                }
                cost
            }
        };
        let coherence = outcome.invalidations as Cycles * self.config.l2_latency;
        let rmw_cost = if rmw { self.config.rmw_penalty } else { 0 };
        base + coherence + rmw_cost
    }

    /// Dispatches ready threads onto idle cores.
    fn dispatch_all(&mut self) {
        while let Some(core) = self.cores.iter().position(|c| c.is_none()) {
            let Some(tid) = self.ready.pop_front() else {
                break;
            };
            self.dispatch(core, tid);
        }
    }

    fn dispatch(&mut self, core: usize, tid: usize) {
        let now = self.now;
        let mut start_delay = 0;
        if self.last_on_core[core] != Some(tid) && self.last_on_core[core].is_some() {
            start_delay = self.config.context_switch;
            self.context_switches += 1;
        }
        self.threads[tid].sched_wait += now.saturating_sub(self.threads[tid].ready_since);
        if now > self.threads[tid].ready_since {
            if let Some(tr) = &mut self.tracer {
                let lane = tr.thread_lanes[tid];
                let buf = tr.rec.buf(lane);
                buf.begin(
                    self.threads[tid].ready_since,
                    "runnable",
                    category::SCHED_WAIT,
                    0,
                );
                buf.end(now);
            }
        }
        self.threads[tid].state = ThreadState::Running;
        self.cores[core] = Some(tid);
        self.last_on_core[core] = Some(tid);
        self.run_slice(core, tid, start_delay);
    }

    /// Simulates a slice for `tid` on `core`, scheduling its end event.
    fn run_slice(&mut self, core: usize, tid: usize, start_delay: Cycles) {
        let slice_start = self.now;
        let mut elapsed = start_delay;
        let quantum = self.config.quantum;
        let mut mem_ops_left = self.config.mem_ops_per_slice;
        let end;
        loop {
            if elapsed >= quantum {
                end = SliceEnd::QuantumExpired;
                break;
            }
            if mem_ops_left == 0 {
                end = SliceEnd::MemoryBatch;
                break;
            }
            // Finish a partially executed compute burst first.
            if self.threads[tid].compute_remaining > 0 {
                let budget = quantum - elapsed;
                let step = self.threads[tid].compute_remaining.min(budget);
                self.threads[tid].compute_remaining -= step;
                self.threads[tid].compute_cycles += step;
                elapsed += step;
                continue;
            }
            let Some(&op) = self.threads[tid].program.ops().get(self.threads[tid].pc) else {
                end = SliceEnd::Finished;
                break;
            };
            match op {
                Op::Compute(_) | Op::ComputeRepeat { .. } => {
                    // Back-to-back compute bursts drain exactly like one
                    // burst of their sum (compute is continuously
                    // interruptible), so a `ComputeRepeat` block
                    // fast-forwards into `compute_remaining` in O(1).
                    self.threads[tid].pc += 1;
                    self.threads[tid].compute_remaining =
                        op.compute_cycles().expect("a compute op");
                }
                Op::Read(addr) => {
                    self.threads[tid].pc += 1;
                    let cost = self.access_cost(core, slice_start + elapsed, addr, false, false);
                    self.threads[tid].memory_cycles += cost;
                    elapsed += cost;
                    mem_ops_left -= 1;
                }
                Op::Write(addr) => {
                    self.threads[tid].pc += 1;
                    let cost = self.access_cost(core, slice_start + elapsed, addr, true, false);
                    self.threads[tid].memory_cycles += cost;
                    elapsed += cost;
                    mem_ops_left -= 1;
                }
                Op::AtomicRmw(addr) => {
                    self.threads[tid].pc += 1;
                    let cost = self.access_cost(core, slice_start + elapsed, addr, true, true);
                    self.threads[tid].memory_cycles += cost;
                    elapsed += cost;
                    mem_ops_left -= 1;
                }
                Op::ReadStride {
                    base,
                    stride,
                    count,
                }
                | Op::WriteStride {
                    base,
                    stride,
                    count,
                } => {
                    // One access per loop iteration, so the quantum and
                    // memory-batch checks interleave exactly as they
                    // would between the expanded unit ops.
                    let done = self.threads[tid].block_progress;
                    if done >= count {
                        self.threads[tid].pc += 1;
                        self.threads[tid].block_progress = 0;
                        continue;
                    }
                    let addr = base.wrapping_add(done.wrapping_mul(stride));
                    let write = matches!(op, Op::WriteStride { .. });
                    let cost = self.access_cost(core, slice_start + elapsed, addr, write, false);
                    self.threads[tid].memory_cycles += cost;
                    elapsed += cost;
                    mem_ops_left -= 1;
                    self.threads[tid].block_progress = done + 1;
                    if done + 1 == count {
                        self.threads[tid].pc += 1;
                        self.threads[tid].block_progress = 0;
                    }
                }
                Op::Barrier { .. } | Op::LockAcquire(_) | Op::LockRelease(_) => {
                    // Synchronisation decisions happen at the correct
                    // virtual time, when the event pops.
                    end = SliceEnd::ReachedSync;
                    break;
                }
            }
        }
        if elapsed > 0 {
            self.tally.busy_cycles[core] += elapsed;
            self.tally.busy_slices[core] += 1;
            if let Some(tr) = &mut self.tracer {
                tr.slice(core, tid, slice_start, slice_start + elapsed);
            }
        }
        self.schedule(core, slice_start + elapsed, tid, end);
    }

    /// Makes `(time, thread, end)` `core`'s pending slice end, stamped
    /// with the next insertion number.
    fn schedule(&mut self, core: usize, time: Cycles, thread: usize, end: SliceEnd) {
        debug_assert!(self.slots[core].is_none(), "core {core} has two slices");
        self.slots[core] = Some(Slot {
            time,
            seq: self.next_seq,
            thread,
            end,
        });
        self.next_seq += 1;
    }

    /// Takes the pending slice end that comes first in `(time, seq)`
    /// order, the order one global event queue would pop them in, and
    /// tallies how many were pending.
    fn pop(&mut self) -> Option<(usize, Slot)> {
        let mut first: Option<(usize, Slot)> = None;
        let mut pending = 0;
        for (core, slot) in self.slots.iter().enumerate() {
            let Some(slot) = *slot else { continue };
            pending += 1;
            if first.is_none_or(|(_, f)| (slot.time, slot.seq) < (f.time, f.seq)) {
                first = Some((core, slot));
            }
        }
        let (core, slot) = first?;
        self.slots[core] = None;
        self.tally.pops_at_depth[pending] += 1;
        self.now = slot.time;
        Some((core, slot))
    }

    /// Gives the popped `slot`'s thread a fresh quantum on `core` while
    /// no thread waits for a core.
    ///
    /// The renewal is *pure* when the thread has a full quantum of
    /// compute ahead: it touches only its own thread, its core's tallies
    /// and its core's trace lane, and leaves the pending count as it
    /// was. Every core in that state then advances in one step through
    /// its renewals before the horizon: the earliest pending slice end
    /// that is not a pure renewal, or the first renewal that would reach
    /// a non-compute op. Those are exactly the pops a one-by-one loop
    /// makes before its first impure one, and they commute.
    fn renew(&mut self, core: usize, slot: Slot) {
        let q = self.config.quantum;
        self.slots[core] = Some(slot);
        let pure_renewals = |s: &Slot| match s.end {
            SliceEnd::QuantumExpired => self.threads[s.thread].compute_ahead() / q,
            _ => 0,
        };
        let horizon = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.time.saturating_add(pure_renewals(s) * q))
            .min()
            .expect("the popped slot is pending");
        // Renewals of `s` that pop before the horizon.
        let advance = |s: &Slot| match s.end {
            SliceEnd::QuantumExpired if s.time < horizon => (horizon - s.time).div_ceil(q),
            _ => 0,
        };
        let pops: u64 = self.slots.iter().flatten().map(advance).sum();
        if pops <= 1 {
            self.slots[core] = None;
            self.run_slice(core, slot.thread, 0);
            return;
        }
        let mut advancing: Vec<(usize, Slot, u64)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(c, s)| {
                let s = (*s)?;
                let k = advance(&s);
                (k > 0).then_some((c, s, k))
            })
            .collect();
        let pending = self.slots.iter().flatten().count();
        // The popped renewal was tallied when it popped.
        self.tally.pops_at_depth[pending] += pops - 1;
        // Seqs only order equal times. Two advanced slots can meet only
        // if their original times differ by whole quanta; from the later
        // one's original time on, the one-by-one loop popped it first
        // (its older seq beat the other's fresh one) and so re-queued it
        // first. Slots that do not advance keep their older seqs.
        advancing.sort_unstable_by_key(|&(_, s, _)| (Reverse(s.time), s.seq));
        for (c, s, k) in advancing {
            self.threads[s.thread].drain_compute(k * q);
            self.tally.busy_cycles[c] += k * q;
            self.tally.busy_slices[c] += k;
            if let Some(tr) = &mut self.tracer {
                for i in 0..k {
                    tr.slice(c, s.thread, s.time + i * q, s.time + (i + 1) * q);
                }
            }
            self.slots[c] = None;
            self.schedule(c, s.time + k * q, s.thread, SliceEnd::QuantumExpired);
        }
    }

    fn make_ready(&mut self, tid: usize) {
        let now = self.now;
        let t = &mut self.threads[tid];
        if matches!(
            t.state,
            ThreadState::BlockedOnLock(_) | ThreadState::BlockedOnBarrier(_)
        ) {
            t.sync_wait += now - t.block_start;
            if let Some(tr) = &mut self.tracer {
                let lane = tr.thread_lanes[tid];
                tr.rec.buf(lane).end(now);
            }
        }
        t.state = ThreadState::Ready;
        t.ready_since = now;
        self.ready.push_back(tid);
    }

    fn block(&mut self, core: usize, tid: usize, state: ThreadState) {
        let now = self.now;
        self.threads[tid].state = state;
        self.threads[tid].block_start = now;
        self.cores[core] = None;
        if let Some(tr) = &mut self.tracer {
            let (name, cat, id) = match state {
                ThreadState::BlockedOnLock(id) => ("lock", category::LOCK_WAIT, id),
                ThreadState::BlockedOnBarrier(id) => ("barrier", category::BARRIER_WAIT, id),
                other => unreachable!("block on non-blocking state {other:?}"),
            };
            let lane = tr.thread_lanes[tid];
            tr.rec.buf(lane).begin(now, name, cat, id as u64);
        }
    }

    /// Handles the sync op at `pc` when its moment arrives. Returns true
    /// if the thread keeps the core (continue slicing), false if it
    /// blocked or finished.
    fn handle_sync(&mut self, core: usize, tid: usize) -> bool {
        let op = self.threads[tid].program.ops()[self.threads[tid].pc];
        match op {
            Op::LockAcquire(id) => {
                let lock = self.locks.entry(id).or_default();
                match lock.holder {
                    None => {
                        lock.holder = Some(tid);
                        self.threads[tid].pc += 1;
                        self.threads[tid].compute_remaining = self.config.lock_overhead;
                        true
                    }
                    Some(h) if h == tid => {
                        // Woken waiter re-executing the acquire.
                        self.threads[tid].pc += 1;
                        true
                    }
                    Some(_) => {
                        lock.waiters.push_back(tid);
                        lock.contended_acquires += 1;
                        self.block(core, tid, ThreadState::BlockedOnLock(id));
                        false
                    }
                }
            }
            Op::LockRelease(id) => {
                let lock = self.locks.entry(id).or_default();
                assert_eq!(
                    lock.holder,
                    Some(tid),
                    "thread {tid} released lock {id} it does not hold"
                );
                lock.holder = lock.waiters.pop_front();
                self.threads[tid].pc += 1;
                self.threads[tid].compute_remaining = self.config.lock_overhead;
                if let Some(next) = lock.holder {
                    self.make_ready(next);
                }
                true
            }
            Op::Barrier { id, participants } => {
                let barrier = self.barriers.entry(id).or_default();
                barrier.arrived.push(tid);
                if barrier.arrived.len() as u32 >= participants {
                    barrier.episodes += 1;
                    let released = std::mem::take(&mut barrier.arrived);
                    for other in released {
                        self.threads[other].pc += 1;
                        if other != tid {
                            self.make_ready(other);
                        }
                    }
                    true
                } else {
                    self.block(core, tid, ThreadState::BlockedOnBarrier(id));
                    false
                }
            }
            other => unreachable!("handle_sync on non-sync op {other:?}"),
        }
    }

    fn run(mut self) -> (RunReport, Option<Trace>) {
        self.dispatch_all();
        while let Some((core, slot)) = self.pop() {
            let thread = slot.thread;
            match slot.end {
                SliceEnd::Finished => {
                    self.threads[thread].state = ThreadState::Done;
                    self.threads[thread].finish_time = Some(self.now);
                    self.cores[core] = None;
                    self.dispatch_all();
                }
                SliceEnd::QuantumExpired => {
                    if self.ready.is_empty() {
                        // No competition: keep the core, fresh quantum.
                        self.renew(core, slot);
                    } else {
                        self.cores[core] = None;
                        self.make_ready(thread);
                        self.dispatch_all();
                    }
                }
                SliceEnd::MemoryBatch => {
                    self.run_slice(core, thread, 0);
                }
                SliceEnd::ReachedSync => {
                    if self.handle_sync(core, thread) {
                        self.run_slice(core, thread, 0);
                    }
                    self.dispatch_all();
                }
            }
        }
        let makespan = self
            .threads
            .iter()
            .filter_map(|t| t.finish_time)
            .max()
            .unwrap_or(0);
        debug_assert!(
            self.threads.iter().all(|t| t.state == ThreadState::Done),
            "deadlock: some threads never finished"
        );
        if let Some(m) = &self.metrics {
            self.tally.record(m);
            self.caches.export_metrics(&m.registry);
        }
        if let Some(tr) = &mut self.tracer {
            // Final per-core cache counter samples, stamped at the
            // makespan so the L1/L2 hit-miss story rides the trace too.
            for core in 0..self.config.cores {
                let stats = &self.caches.stats[core];
                let lane = tr.core_lanes[core];
                let buf = tr.rec.buf(lane);
                buf.counter(makespan, "l1_hits", category::CACHE, stats.l1_hits);
                buf.counter(makespan, "l2_hits", category::CACHE, stats.l2_hits);
                buf.counter(
                    makespan,
                    "memory_accesses",
                    category::CACHE,
                    stats.memory_accesses,
                );
                buf.counter(
                    makespan,
                    "invalidations",
                    category::CACHE,
                    stats.invalidations_received,
                );
            }
        }
        let trace = self.tracer.take().map(|t| t.rec.finish());
        let report = RunReport {
            total_cycles: makespan,
            threads: self
                .threads
                .iter()
                .map(|t| ThreadReport {
                    finish_time: t.finish_time.unwrap_or(0),
                    compute_cycles: t.compute_cycles,
                    memory_cycles: t.memory_cycles,
                    sync_wait: t.sync_wait,
                    sched_wait: t.sched_wait,
                })
                .collect(),
            cache_stats: self.caches.stats.clone(),
            contended_lock_acquires: self.locks.values().map(|l| l.contended_acquires).sum(),
            barrier_episodes: self.barriers.values().map(|b| b.episodes).sum(),
            context_switches: self.context_switches,
        };
        (report, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_threads(n: usize, cycles: Cycles) -> Vec<Program> {
        (0..n).map(|_| Program::new().compute(cycles)).collect()
    }

    #[test]
    fn empty_run_reports_zero() {
        let r = Machine::pi().run(vec![]);
        assert_eq!(r.total_cycles, 0);
        assert!(r.threads.is_empty());
    }

    #[test]
    fn single_thread_compute_time_is_exact() {
        let r = Machine::pi().run_sequential(Program::new().compute(123_456));
        assert_eq!(r.total_cycles, 123_456);
        assert_eq!(r.threads[0].compute_cycles, 123_456);
        assert_eq!(r.threads[0].sync_wait, 0);
    }

    #[test]
    fn four_threads_on_four_cores_run_in_parallel() {
        let r = Machine::pi().run(compute_threads(4, 1_000_000));
        // Perfect parallelism: makespan equals one thread's work.
        assert_eq!(r.total_cycles, 1_000_000);
        assert_eq!(r.context_switches, 0);
    }

    #[test]
    fn five_threads_on_four_cores_take_longer() {
        let four = Machine::pi().run(compute_threads(4, 1_000_000));
        let five = Machine::pi().run(compute_threads(5, 1_000_000));
        // 5 threads of equal work on 4 cores: makespan ≈ 2x the 4-thread
        // case is wrong (time-slicing spreads it) but must exceed it.
        assert!(five.total_cycles > four.total_cycles);
        assert!(
            five.context_switches > 0,
            "oversubscription forces switches"
        );
        // Total work conserved.
        let total: Cycles = five.threads.iter().map(|t| t.compute_cycles).sum();
        assert_eq!(total, 5_000_000);
    }

    #[test]
    fn speedup_shape_matches_amdahl_expectations() {
        // The same total work split over 1, 2, 4 threads on 4 cores.
        let total: Cycles = 4_000_000;
        let t1 = Machine::pi().run(vec![Program::new().compute(total)]);
        let t2 = Machine::pi().run(compute_threads(2, total / 2));
        let t4 = Machine::pi().run(compute_threads(4, total / 4));
        let s2 = t1.total_cycles as f64 / t2.total_cycles as f64;
        let s4 = t1.total_cycles as f64 / t4.total_cycles as f64;
        assert!((s2 - 2.0).abs() < 0.05, "s2 = {s2}");
        assert!((s4 - 4.0).abs() < 0.1, "s4 = {s4}");
    }

    #[test]
    fn memory_traffic_costs_cycles() {
        let touch: Program = (0..100u64).map(|i| Op::Read(i * 64)).collect();
        let r = Machine::pi().run(vec![touch]);
        assert!(r.threads[0].memory_cycles >= 100 * 60, "all cold misses");
        assert_eq!(r.total_cycles, r.threads[0].memory_cycles);
    }

    #[test]
    fn cached_rereads_are_cheap() {
        let cold: Program = (0..64u64).map(|i| Op::Read(i * 64)).collect();
        let warm = cold.clone().then(&cold);
        let r_cold = Machine::pi().run(vec![cold]);
        let r_warm = Machine::pi().run(vec![warm]);
        // The second pass hits L1: far less than double the time.
        assert!(r_warm.total_cycles < r_cold.total_cycles * 3 / 2);
    }

    #[test]
    fn barrier_synchronises_threads() {
        // Thread 0 computes little, thread 1 a lot; both meet at the
        // barrier, so finish times converge after it.
        let p0 = Program::new().compute(1_000).barrier(7, 2).compute(10);
        let p1 = Program::new().compute(500_000).barrier(7, 2).compute(10);
        let r = Machine::pi().run(vec![p0, p1]);
        assert_eq!(r.barrier_episodes, 1);
        assert!(r.threads[0].sync_wait >= 490_000, "fast thread waited");
        let gap = r.threads[0].finish_time.abs_diff(r.threads[1].finish_time);
        assert!(gap < 1_000, "both finish shortly after the barrier");
    }

    #[test]
    fn barrier_reuse_across_iterations() {
        let make = |n: u32| {
            let mut p = Program::new();
            for _ in 0..n {
                p = p.compute(1_000).barrier(3, 2);
            }
            p
        };
        let r = Machine::pi().run(vec![make(5), make(5)]);
        assert_eq!(r.barrier_episodes, 5);
    }

    #[test]
    fn lock_serialises_critical_sections() {
        // Two threads each do 10 critical sections of 10_000 cycles.
        let crit = |n: u32| {
            let mut p = Program::new();
            for _ in 0..n {
                p = p.lock(1).compute(10_000).unlock(1);
            }
            p
        };
        let r = Machine::pi().run(vec![crit(10), crit(10)]);
        // 200_000 cycles of critical work must serialise.
        assert!(r.total_cycles >= 200_000);
        assert!(r.contended_lock_acquires > 0);
    }

    #[test]
    fn uncontended_locks_are_cheap() {
        let p = Program::new().lock(9).compute(100).unlock(9);
        let r = Machine::pi().run(vec![p]);
        assert_eq!(r.contended_lock_acquires, 0);
        assert!(r.total_cycles < 1_000);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn releasing_unheld_lock_panics() {
        let p = Program::new().unlock(4);
        let _ = Machine::pi().run(vec![p]);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let progs: Vec<Program> = (0..6)
                .map(|i| {
                    Program::new()
                        .compute(10_000 + i * 777)
                        .lock(0)
                        .compute(500)
                        .unlock(0)
                        .barrier(1, 6)
                        .compute(2_000)
                })
                .collect();
            Machine::pi().run(progs)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.total_cycles, b.total_cycles);
        for (x, y) in a.threads.iter().zip(&b.threads) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn atomic_rmw_pays_penalty_and_coherence() {
        // Four threads hammering one atomic counter vs four disjoint ones.
        let shared: Vec<Program> = (0..4)
            .map(|_| (0..50).map(|_| Op::AtomicRmw(0x100)).collect())
            .collect();
        let disjoint: Vec<Program> = (0..4u64)
            .map(|t| (0..50).map(|_| Op::AtomicRmw(0x100 + t * 4096)).collect())
            .collect();
        let rs = Machine::pi().run(shared);
        let rd = Machine::pi().run(disjoint);
        assert!(
            rs.total_cycles > rd.total_cycles,
            "contended atomics slower: {} vs {}",
            rs.total_cycles,
            rd.total_cycles
        );
    }

    /// Asserts an RLE program and its unit-op expansion produce
    /// bit-identical reports.
    fn assert_rle_matches_expansion(programs: Vec<Program>) {
        let expanded: Vec<Program> = programs.iter().map(Program::expand).collect();
        let rle = Machine::pi().run(programs);
        let unit = Machine::pi().run(expanded);
        assert_eq!(rle.total_cycles, unit.total_cycles);
        assert_eq!(rle.threads, unit.threads);
        assert_eq!(rle.context_switches, unit.context_switches);
        assert_eq!(rle.contended_lock_acquires, unit.contended_lock_acquires);
        assert_eq!(rle.barrier_episodes, unit.barrier_episodes);
        for (a, b) in rle.cache_stats.iter().zip(&unit.cache_stats) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn compute_repeat_matches_expansion_across_quanta() {
        // 40 bursts of 7_000 cycles cross several 50_000-cycle quanta,
        // with oversubscription forcing preemption mid-block.
        let programs: Vec<Program> = (0..6)
            .map(|i| Program::new().compute_repeat(7_000 + i * 13, 40))
            .collect();
        assert_rle_matches_expansion(programs);
    }

    #[test]
    fn compute_repeat_single_thread_time_is_exact() {
        let r = Machine::pi().run_sequential(Program::new().compute_repeat(3, 1_000_000));
        assert_eq!(r.total_cycles, 3_000_000);
        assert_eq!(r.threads[0].compute_cycles, 3_000_000);
    }

    #[test]
    fn strided_blocks_match_expansion_with_shared_caches() {
        // Overlapping strided regions across threads exercise coherence
        // traffic; the memory-batch budget splits blocks mid-way.
        let programs: Vec<Program> = (0..4u64)
            .map(|t| {
                Program::new()
                    .compute(1_000)
                    .read_stride(t * 1_024, 64, 300)
                    .write_stride(0x10_000, 64, 150)
                    .compute_repeat(500, 10)
            })
            .collect();
        assert_rle_matches_expansion(programs);
    }

    #[test]
    fn rle_blocks_match_expansion_around_sync() {
        let programs: Vec<Program> = (0..3u64)
            .map(|t| {
                Program::new()
                    .compute_repeat(2_000, 30)
                    .barrier(0, 3)
                    .lock(1)
                    .write_stride(0x500, 8, 40)
                    .unlock(1)
                    .read_stride(t * 4_096, 64, 100)
            })
            .collect();
        assert_rle_matches_expansion(programs);
    }

    #[test]
    fn empty_rle_blocks_are_no_ops() {
        let p = Program::new()
            .compute_repeat(1_000, 0)
            .read_stride(0, 64, 0)
            .compute(10);
        let r = Machine::pi().run_sequential(p);
        assert_eq!(r.total_cycles, 10);
    }

    #[test]
    fn single_core_machine_serialises_everything() {
        let m = Machine::new(MachineConfig::pi_single_core());
        let r = m.run(compute_threads(4, 100_000));
        assert!(r.total_cycles >= 400_000);
    }

    #[test]
    fn traced_run_matches_untraced_and_covers_cores() {
        let programs = compute_threads(6, 200_000);
        let plain = Machine::pi().run(programs.clone());
        let (report, trace) = Machine::pi().run_traced(programs);
        assert_eq!(report.total_cycles, plain.total_cycles);
        assert_eq!(trace.total, report.total_cycles);
        // All four cores did work; oversubscription put >1 thread on
        // some core.
        let utilization = trace.utilization(4);
        assert!(utilization.iter().all(|&u| u > 0.0), "{utilization:?}");
        assert!((0..4).any(|c| trace.threads_on_core(c).len() > 1));
        // Segments never overlap on one core.
        for core in 0..4 {
            let mut segs: Vec<_> = trace.segments.iter().filter(|s| s.core == core).collect();
            segs.sort_by_key(|s| s.start);
            assert!(segs.windows(2).all(|w| w[0].end <= w[1].start));
        }
    }

    #[test]
    fn trace_stream_is_deterministic_and_does_not_perturb_the_run() {
        let programs = || -> Vec<Program> {
            (0..6u64)
                .map(|t| {
                    Program::new()
                        .compute(10_000 + t * 777)
                        .read_stride(t * 512, 64, 200)
                        .lock(0)
                        .write_stride(0x9000, 8, 30)
                        .unlock(0)
                        .barrier(1, 6)
                        .compute(2_000)
                })
                .collect()
        };
        let plain = Machine::pi().run(programs());
        let cfg = TraceConfig::default();
        let (ra, ta) = Machine::pi().run_with_trace(programs(), &cfg);
        let (_rb, tb) = Machine::pi().run_with_trace(programs(), &cfg);
        assert_eq!(ra.total_cycles, plain.total_cycles, "observer effect");
        assert_eq!(ra.threads, plain.threads);
        assert_eq!(ra.context_switches, plain.context_switches);
        assert_eq!(
            ta.to_chrome_json(),
            tb.to_chrome_json(),
            "trace must be byte-identical across runs"
        );
        assert_eq!(ta.digest(), tb.digest());
        assert_eq!(ta.makespan(), ra.total_cycles);
        // The stream carries every advertised event family.
        let analysis = obs::trace::analyze::analyze(&ta);
        assert!(analysis.attribution_is_exact());
        let categories: Vec<&str> = ta.events.iter().map(|e| e.category).collect();
        assert!(categories.contains(&category::SLICE));
        assert!(categories.contains(&category::BARRIER_WAIT));
        assert!(categories.contains(&category::LOCK_WAIT));
        assert!(categories.contains(&category::SCHED_WAIT));
        assert!(categories.contains(&category::CACHE));
        // Wait spans agree with the report's accounting: per thread,
        // barrier+lock span cycles equal sync_wait and sched spans
        // equal sched_wait.
        for (tid, th) in ra.threads.iter().enumerate() {
            let lane = ta
                .lanes
                .iter()
                .find(|l| l.name == format!("thread/{tid}"))
                .expect("thread lane")
                .id;
            let sums: std::collections::HashMap<&str, u64> = {
                let mut open: Vec<(&str, u64)> = Vec::new();
                let mut sums = std::collections::HashMap::new();
                for ev in ta.events.iter().filter(|e| e.lane == lane) {
                    match ev.kind {
                        obs::trace::EventKind::Begin => open.push((ev.category, ev.time)),
                        obs::trace::EventKind::End => {
                            let (cat, start) = open.pop().expect("balanced spans");
                            *sums.entry(cat).or_default() += ev.time - start;
                        }
                        _ => {}
                    }
                }
                assert!(open.is_empty(), "thread lanes close every span");
                sums
            };
            let sync = sums.get(category::BARRIER_WAIT).copied().unwrap_or(0)
                + sums.get(category::LOCK_WAIT).copied().unwrap_or(0);
            assert_eq!(sync, th.sync_wait, "thread {tid} sync_wait");
            assert_eq!(
                sums.get(category::SCHED_WAIT).copied().unwrap_or(0),
                th.sched_wait,
                "thread {tid} sched_wait"
            );
        }
    }

    #[test]
    fn gantt_renders_for_a_simple_run() {
        let (_, trace) = Machine::pi().run_traced(compute_threads(2, 100_000));
        let gantt = trace.render_gantt(4, 40);
        assert_eq!(gantt.lines().count(), 4);
        assert!(gantt.contains('0'));
        assert!(gantt.contains('1'));
    }

    #[test]
    fn metrics_do_not_perturb_the_run_and_are_deterministic() {
        let programs = || -> Vec<Program> {
            (0..6u64)
                .map(|t| {
                    Program::new()
                        .compute(10_000 + t * 777)
                        .read_stride(t * 512, 64, 200)
                        .lock(0)
                        .write_stride(0x9000, 8, 30)
                        .unlock(0)
                        .barrier(1, 6)
                        .compute(2_000)
                })
                .collect()
        };
        let plain = Machine::pi().run(programs());
        let run_instrumented = || {
            let registry = obs::Registry::new();
            let report = Machine::pi().run_with_metrics(programs(), &registry);
            (report, registry.snapshot())
        };
        let (ra, sa) = run_instrumented();
        let (rb, sb) = run_instrumented();
        assert_eq!(ra.total_cycles, plain.total_cycles, "observer effect");
        assert_eq!(ra.threads, plain.threads);
        assert_eq!(rb.total_cycles, ra.total_cycles, "rerun must agree");
        assert_eq!(
            sa.to_json(),
            sb.to_json(),
            "snapshot must be byte-identical"
        );
        // The exported cache counters agree with the report's stats.
        let l1_total: u64 = ra.cache_stats.iter().map(|s| s.l1_hits).sum();
        let sample = sa
            .metrics
            .iter()
            .find(|m| m.name == "pi_sim/cache/l1_hits")
            .expect("cache counter exported");
        assert!(matches!(sample.data, obs::MetricData::Counter { value } if value == l1_total));
        // Busy spans and the queue-depth histogram were populated.
        assert!(sa.metrics.iter().any(|m| m.name == "pi_sim/core/0/busy"));
        assert!(sa
            .metrics
            .iter()
            .any(|m| m.name == "pi_sim/events/queue_depth"
                && matches!(m.data, obs::MetricData::Histogram { count, .. } if count > 0)));
    }

    #[test]
    #[should_panic(expected = "mem_ops_per_slice must be positive")]
    fn zero_mem_ops_per_slice_panics() {
        let _ = Machine::new(MachineConfig {
            mem_ops_per_slice: 0,
            ..MachineConfig::pi()
        });
    }

    #[test]
    #[should_panic(expected = "context_switch must be shorter than the quantum")]
    fn context_switch_of_a_whole_quantum_panics() {
        let _ = Machine::new(MachineConfig {
            quantum: 1_000,
            context_switch: 1_000,
            ..MachineConfig::pi()
        });
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = Machine::new(MachineConfig {
            cores: 0,
            ..MachineConfig::pi()
        });
    }
}
