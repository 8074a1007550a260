//! The OS machine: CPU cores and the sleep queue under one event loop
//! in virtual time.
//!
//! ## Preemption determinism
//!
//! Every scheduling decision is an event in virtual time:
//!
//! * Cores execute processes in *micro-steps* — a compute burst capped
//!   at the quantum deadline, one batch of memory accesses through the
//!   pi-sim cache hierarchy, or one explicit trap step. A micro-step is
//!   announced (its end time set) before it is committed, so the loop
//!   totally orders it against every wake and every other core's step.
//! * There is no timer event: each core checks its own quantum deadline
//!   at every instruction boundary, preempting there when a process is
//!   waiting and renewing the slice in place when none is.
//! * Ties on virtual time go to the sleep queue first, then to cores in
//!   index order, so a run is a pure function of `(programs, scheduler,
//!   config)` — any `(scheduler, timeslice, seed)` triple replays
//!   bit-identically.
//!
//! Memory micro-steps go through [`pi_sim::cache::Hierarchy`] and are
//! costed by [`MachineConfig::access_latency`], the latency and
//! bus-contention rule pi-sim's machine uses, which is what makes
//! preemption *interleave* with the cache model: a context switch
//! moves a process's working set off a core's L1, and the report shows
//! the cost.

use std::collections::BTreeSet;

use obs::trace::{category, fnv1a, Trace, TraceConfig, TraceRecorder};
use pi_sim::cache::Hierarchy;
use pi_sim::event::Cycles;
use pi_sim::machine::MachineConfig;

use crate::process::{BlockReason, OsOp, Pcb, Pid, ProcProgram, ProcState, Regs};
use crate::sched::Scheduler;
use crate::syscall::{Signal, Syscall};

/// Configuration of the OS machine.
#[derive(Debug, Clone)]
pub struct OsConfig {
    /// Scheduler quantum in cycles, the same for every process; at
    /// least 1.
    pub timeslice: Cycles,
    /// Cost of switching a core to a different process.
    pub context_switch_cost: Cycles,
    /// Cost of the explicit trap step entering the kernel.
    pub trap_cost: Cycles,
    /// Memory accesses per micro-step for strided ops: preemption can
    /// only land between batches (instruction-boundary semantics).
    pub mem_batch: u64,
    /// Hardware cores (which also size the cache hierarchy) and the
    /// latency/contention model, shared with the pi-sim machine.
    pub machine: MachineConfig,
    /// Per-lane trace ring capacity for traced runs.
    pub trace_capacity: usize,
}

impl OsConfig {
    /// The quad-core Raspberry Pi defaults.
    pub fn pi() -> Self {
        let machine = MachineConfig::pi();
        OsConfig {
            timeslice: machine.quantum,
            context_switch_cost: machine.context_switch,
            trap_cost: 200,
            mem_batch: 32,
            machine,
            trace_capacity: 65_536,
        }
    }

    /// The Pi restricted to `cores` cores.
    pub fn pi_with_cores(cores: usize) -> Self {
        let mut cfg = Self::pi();
        cfg.machine.cores = cores;
        cfg
    }
}

/// What a core has announced it will complete at `busy_until`.
#[derive(Debug, Clone)]
enum Micro {
    /// Nothing in flight.
    Idle,
    /// Context-switch cost; the slice starts at commit.
    CtxIn,
    /// A compute burst of the given cycles.
    Compute(Cycles),
    /// A batch of memory accesses (cost precomputed at issue, when the
    /// cache state was mutated).
    Mem {
        cost: Cycles,
        ops: u64,
        completes_op: bool,
    },
    /// The explicit trap step.
    Trap(Syscall),
}

#[derive(Debug)]
struct CoreState {
    running: Option<Pid>,
    busy_until: Option<Cycles>,
    pending: Micro,
    /// Quantum deadline of the active slice (None during switch-in).
    deadline: Option<Cycles>,
}

enum Flow {
    /// The process keeps its core after the syscall.
    Continue,
    /// The process blocked, yielded, or exited.
    Descheduled,
}

struct Tracer {
    rec: TraceRecorder,
    core_lanes: Vec<u32>,
    sched_lane: u32,
    proc_lanes: Vec<u32>,
    /// Whether the proc lane currently has an open span.
    proc_open: Vec<bool>,
}

struct OsState {
    cfg: OsConfig,
    procs: Vec<Pcb>,
    sched: Box<dyn Scheduler>,
    cores: Vec<CoreState>,
    caches: Hierarchy,
    sleepers: BTreeSet<(Cycles, Pid)>,
    /// Virtual time of the most recent make_ready (idle-core wake hint).
    ready_stamp: Cycles,
    tracer: Option<Tracer>,
    context_switches: u64,
    syscalls: u64,
}

impl OsState {
    fn new(cfg: OsConfig, sched: Box<dyn Scheduler>, traced: bool) -> Self {
        let cores = (0..cfg.machine.cores)
            .map(|_| CoreState {
                running: None,
                busy_until: None,
                pending: Micro::Idle,
                deadline: None,
            })
            .collect();
        let caches = Hierarchy::pi(cfg.machine.cores);
        let tracer = traced.then(|| {
            let mut rec = TraceRecorder::new(&TraceConfig {
                capacity_per_lane: cfg.trace_capacity,
            });
            let core_lanes = (0..cfg.machine.cores)
                .map(|c| rec.lane(format!("core/{c}")))
                .collect();
            let sched_lane = rec.lane("os/sched");
            Tracer {
                rec,
                core_lanes,
                sched_lane,
                proc_lanes: Vec::new(),
                proc_open: Vec::new(),
            }
        });
        OsState {
            cfg,
            procs: Vec::new(),
            sched,
            cores,
            caches,
            sleepers: BTreeSet::new(),
            ready_stamp: 0,
            tracer,
            context_switches: 0,
            syscalls: 0,
        }
    }

    fn spawn(&mut self, parent: Option<Pid>, program: ProcProgram, priority: u8) -> Pid {
        let pid = self.procs.len() as Pid;
        if let Some(tr) = &mut self.tracer {
            let lane = tr.rec.lane(format!("proc/{pid}"));
            tr.proc_lanes.push(lane);
            tr.proc_open.push(false);
        }
        self.procs.push(Pcb::new(pid, parent, program, priority));
        pid
    }

    // --- tracing helpers -------------------------------------------------

    fn trace_begin_proc(&mut self, pid: Pid, now: Cycles, name: &str, cat: &'static str) {
        if let Some(tr) = &mut self.tracer {
            let lane = tr.proc_lanes[pid as usize];
            tr.rec.buf(lane).begin(now, name, cat, pid as u64);
            tr.proc_open[pid as usize] = true;
        }
    }

    fn trace_end_proc(&mut self, pid: Pid, now: Cycles) {
        if let Some(tr) = &mut self.tracer {
            if tr.proc_open[pid as usize] {
                let lane = tr.proc_lanes[pid as usize];
                tr.rec.buf(lane).end(now);
                tr.proc_open[pid as usize] = false;
            }
        }
    }

    fn trace_core_begin(
        &mut self,
        core: usize,
        now: Cycles,
        name: &str,
        cat: &'static str,
        v: u64,
    ) {
        if let Some(tr) = &mut self.tracer {
            let lane = tr.core_lanes[core];
            tr.rec.buf(lane).begin(now, name, cat, v);
        }
    }

    /// Opens `pid`'s slice on `core` and its run span. The slice name is
    /// built only when a tracer is attached: this runs at every switch-in.
    fn trace_run_begin(&mut self, core: usize, pid: Pid, now: Cycles) {
        if let Some(tr) = &mut self.tracer {
            let lane = tr.core_lanes[core];
            tr.rec
                .buf(lane)
                .begin(now, format!("pid/{pid}"), category::SLICE, pid as u64);
        }
        self.trace_begin_proc(pid, now, "run", category::SLICE);
    }

    fn trace_core_end(&mut self, core: usize, now: Cycles) {
        if let Some(tr) = &mut self.tracer {
            let lane = tr.core_lanes[core];
            tr.rec.buf(lane).end(now);
        }
    }

    fn trace_switch_instant(&mut self, core: usize, now: Cycles, name: &str, pid: Pid) {
        if let Some(tr) = &mut self.tracer {
            let lane = tr.core_lanes[core];
            tr.rec
                .buf(lane)
                .instant(now, name, category::PREEMPT, pid as u64);
        }
    }

    fn trace_runq(&mut self, now: Cycles) {
        let depth = self.sched.queued() as u64;
        if let Some(tr) = &mut self.tracer {
            let lane = tr.sched_lane;
            tr.rec
                .buf(lane)
                .counter(now, "runq", category::QUEUE, depth);
        }
    }

    // --- scheduling core -------------------------------------------------

    fn make_ready(&mut self, pid: Pid, now: Cycles) {
        let pcb = &mut self.procs[pid as usize];
        pcb.state = ProcState::Ready;
        pcb.ready_since = now;
        self.sched.enqueue(&self.procs[pid as usize]);
        self.ready_stamp = now;
        self.trace_begin_proc(pid, now, "ready", category::SCHED_WAIT);
        self.trace_runq(now);
    }

    /// Pops runnable processes, reaping any that were killed while
    /// queued, until one can actually run.
    fn pick_runnable(&mut self, now: Cycles) -> Option<Pid> {
        loop {
            let pid = self.sched.pick()?;
            if self.procs[pid as usize].killed {
                self.exit_process(pid, -9, now);
                continue;
            }
            return Some(pid);
        }
    }

    fn try_dispatch(&mut self, core: usize, now: Cycles) {
        let Some(pid) = self.pick_runnable(now) else {
            return;
        };
        {
            let pcb = &mut self.procs[pid as usize];
            let wait = now.saturating_sub(pcb.ready_since);
            pcb.max_ready_wait = pcb.max_ready_wait.max(wait);
            pcb.state = ProcState::Running;
            pcb.context_switches += 1;
        }
        self.context_switches += 1;
        self.trace_end_proc(pid, now); // close the sched_wait span
        self.trace_core_begin(core, now, "ctx", category::PREEMPT, pid as u64);
        let c = &mut self.cores[core];
        c.running = Some(pid);
        c.pending = Micro::CtxIn;
        c.busy_until = Some(now + self.cfg.context_switch_cost);
        c.deadline = None;
        self.trace_runq(now);
    }

    /// Takes `pid` off `core` into the Ready queue (quantum expiry).
    fn preempt(&mut self, core: usize, pid: Pid, now: Cycles) {
        self.procs[pid as usize].involuntary_preemptions += 1;
        self.trace_core_end(core, now); // slice span
        self.trace_end_proc(pid, now);
        self.trace_switch_instant(core, now, "preempt", pid);
        self.make_ready(pid, now);
        let c = &mut self.cores[core];
        c.running = None;
        c.deadline = None;
    }

    /// Marks the end of `pid`'s tenure on `core` for a voluntary reason
    /// (block, yield, exit). Spans were already closed at the trap.
    fn voluntary_switch(&mut self, core: usize, pid: Pid, now: Cycles) {
        self.trace_switch_instant(core, now, "switch", pid);
        let c = &mut self.cores[core];
        c.running = None;
        c.deadline = None;
    }

    /// One access through the cache hierarchy, costed by the machine's
    /// latency and bus-contention rule.
    fn access_cost(
        &mut self,
        core: usize,
        now: Cycles,
        addr: u64,
        write: bool,
        rmw: bool,
    ) -> Cycles {
        let outcome = self.caches.access(core, addr, write);
        let (cost, contention) = self.cfg.machine.access_latency(outcome, rmw, || {
            self.cores.iter().filter(|c| c.running.is_some()).count()
        });
        if let (Some(extra), Some(tr)) = (contention, &mut self.tracer) {
            let lane = tr.core_lanes[core];
            tr.rec
                .buf(lane)
                .instant(now, "contention", category::BUS, extra);
        }
        cost
    }

    /// Terminates `pid`: zombie state, tree maintenance, parent wakeup.
    fn exit_process(&mut self, pid: Pid, code: i32, now: Cycles) {
        self.trace_end_proc(pid, now);
        let children = {
            let pcb = &mut self.procs[pid as usize];
            pcb.state = ProcState::Zombie;
            pcb.exit_code = Some(code);
            pcb.completed_at = now;
            std::mem::take(&mut pcb.children)
        };
        // Live orphans reparent to the kernel; dead ones keep their
        // historical parent link but are collected by the kernel.
        for child in &children {
            let c = &mut self.procs[*child as usize];
            if matches!(c.state, ProcState::Zombie) {
                c.reaped = true;
            } else {
                c.parent = None;
            }
        }
        self.procs[pid as usize].children = children;
        match self.procs[pid as usize].parent {
            Some(p) if self.procs[p as usize].alive() => {
                if matches!(
                    self.procs[p as usize].state,
                    ProcState::Blocked(BlockReason::WaitChild)
                ) {
                    self.procs[pid as usize].reaped = true;
                    self.procs[p as usize].regs.last_ret = pid as u64;
                    self.trace_end_proc(p, now); // close the wait span
                    self.make_ready(p, now);
                }
            }
            _ => self.procs[pid as usize].reaped = true,
        }
    }

    /// Force-terminates `target` (kill / Signal::Terminate).
    fn kill(&mut self, target: Pid, now: Cycles) {
        if target as usize >= self.procs.len() || !self.procs[target as usize].alive() {
            return;
        }
        match self.procs[target as usize].state {
            // A running target dies at its next instruction boundary, a
            // queued one when it is picked.
            ProcState::Running | ProcState::Ready => self.procs[target as usize].killed = true,
            ProcState::Blocked(reason) => {
                if let BlockReason::Sleep { until } = reason {
                    self.sleepers.remove(&(until, target));
                }
                self.exit_process(target, -9, now);
            }
            ProcState::Zombie => {}
        }
    }

    fn handle_syscall(&mut self, core: usize, pid: Pid, sys: Syscall, now: Cycles) -> Flow {
        match sys {
            Syscall::Fork => {
                let (program, priority, regs, vruntime) = {
                    let p = &self.procs[pid as usize];
                    (p.program.clone(), p.priority, p.regs, p.vruntime)
                };
                let child = self.spawn(Some(pid), program, priority);
                {
                    let c = &mut self.procs[child as usize];
                    c.regs = Regs {
                        last_ret: 0,
                        ..regs
                    };
                    c.vruntime = vruntime;
                }
                self.procs[pid as usize].regs.last_ret = child as u64;
                self.procs[pid as usize].children.push(child);
                self.make_ready(child, now);
                Flow::Continue
            }
            Syscall::Exec(program) => {
                let pcb = &mut self.procs[pid as usize];
                pcb.program = program;
                pcb.regs = Regs {
                    last_ret: 1,
                    ..Regs::default()
                };
                Flow::Continue
            }
            Syscall::Wait => {
                let zombie = self.procs[pid as usize]
                    .children
                    .iter()
                    .copied()
                    .find(|&c| {
                        matches!(self.procs[c as usize].state, ProcState::Zombie)
                            && !self.procs[c as usize].reaped
                    });
                if let Some(z) = zombie {
                    self.procs[z as usize].reaped = true;
                    self.procs[pid as usize].regs.last_ret = z as u64;
                    return Flow::Continue;
                }
                let has_unreaped = self.procs[pid as usize]
                    .children
                    .iter()
                    .any(|&c| !self.procs[c as usize].reaped);
                if !has_unreaped {
                    self.procs[pid as usize].regs.last_ret = 0;
                    return Flow::Continue;
                }
                self.procs[pid as usize].state = ProcState::Blocked(BlockReason::WaitChild);
                self.voluntary_switch(core, pid, now);
                self.trace_begin_proc(pid, now, "wait", category::SYSCALL);
                Flow::Descheduled
            }
            Syscall::Sleep(d) => {
                let until = now + d;
                self.procs[pid as usize].state = ProcState::Blocked(BlockReason::Sleep { until });
                self.sleepers.insert((until, pid));
                self.voluntary_switch(core, pid, now);
                self.trace_begin_proc(pid, now, "sleep", category::SYSCALL);
                Flow::Descheduled
            }
            Syscall::Yield => {
                self.procs[pid as usize].voluntary_yields += 1;
                self.voluntary_switch(core, pid, now);
                self.make_ready(pid, now);
                Flow::Descheduled
            }
            Syscall::Kill(target)
            | Syscall::Signal {
                target,
                signal: Signal::Terminate,
            } => {
                if target == pid {
                    self.voluntary_switch(core, pid, now);
                    self.exit_process(pid, -9, now);
                    Flow::Descheduled
                } else {
                    self.kill(target, now);
                    Flow::Continue
                }
            }
            Syscall::Signal { target, signal } => {
                if (target as usize) < self.procs.len() && self.procs[target as usize].alive() {
                    let sleeping = matches!(
                        self.procs[target as usize].state,
                        ProcState::Blocked(BlockReason::Sleep { .. })
                    );
                    if signal == Signal::Interrupt && sleeping {
                        if let ProcState::Blocked(BlockReason::Sleep { until }) =
                            self.procs[target as usize].state
                        {
                            self.sleepers.remove(&(until, target));
                        }
                        self.trace_end_proc(target, now); // close the sleep span
                        self.make_ready(target, now);
                    } else {
                        self.procs[target as usize].pending_signals += 1;
                    }
                }
                Flow::Continue
            }
            Syscall::Exit(code) => {
                self.voluntary_switch(core, pid, now);
                self.exit_process(pid, code, now);
                Flow::Descheduled
            }
        }
    }

    /// Commits the micro-step that just completed on `core`.
    fn commit(&mut self, core: usize, now: Cycles) {
        let pending = std::mem::replace(&mut self.cores[core].pending, Micro::Idle);
        self.cores[core].busy_until = None;
        let Some(pid) = self.cores[core].running else {
            return;
        };
        match pending {
            Micro::Idle => {}
            Micro::CtxIn => {
                self.trace_core_end(core, now); // ctx span
                self.cores[core].deadline = Some(now + self.cfg.timeslice);
                self.trace_run_begin(core, pid, now);
            }
            Micro::Compute(step) => {
                {
                    let pcb = &mut self.procs[pid as usize];
                    pcb.cpu_cycles += step;
                    pcb.retired_work += step;
                    pcb.regs.burst_remaining -= step;
                    if pcb.regs.burst_remaining == 0 {
                        pcb.regs.pc += 1;
                    }
                }
                self.sched.charge(&mut self.procs[pid as usize], step);
            }
            Micro::Mem {
                cost,
                ops,
                completes_op,
            } => {
                {
                    let pcb = &mut self.procs[pid as usize];
                    pcb.cpu_cycles += cost;
                    pcb.retired_work += ops;
                    pcb.regs.unit_progress += ops;
                    if completes_op {
                        pcb.regs.pc += 1;
                        pcb.regs.unit_progress = 0;
                    }
                }
                self.sched.charge(&mut self.procs[pid as usize], cost);
            }
            Micro::Trap(sys) => {
                self.trace_core_end(core, now); // syscall span
                self.procs[pid as usize].syscalls += 1;
                self.syscalls += 1;
                self.procs[pid as usize].regs.pc += 1;
                match self.handle_syscall(core, pid, sys, now) {
                    Flow::Continue => {
                        self.trace_run_begin(core, pid, now);
                    }
                    Flow::Descheduled => {}
                }
            }
        }
    }

    /// Decides and announces the next micro-step for `core`.
    fn issue(&mut self, core: usize, now: Cycles) {
        loop {
            let Some(pid) = self.cores[core].running else {
                self.try_dispatch(core, now);
                return;
            };
            if self.procs[pid as usize].killed {
                self.trace_core_end(core, now);
                self.trace_end_proc(pid, now);
                self.voluntary_switch(core, pid, now);
                self.exit_process(pid, -9, now);
                continue;
            }
            let deadline = match self.cores[core].deadline {
                Some(d) if now >= d => {
                    if self.sched.queued() > 0 {
                        self.preempt(core, pid, now);
                        continue;
                    }
                    // Nobody waiting: renew the slice in place, no
                    // context-switch cost.
                    let renewed = now + self.cfg.timeslice;
                    self.cores[core].deadline = Some(renewed);
                    renewed
                }
                Some(d) => d,
                // Still inside the switch-in (shouldn't issue here).
                None => return,
            };
            let pc = self.procs[pid as usize].regs.pc;
            if pc >= self.procs[pid as usize].program.ops.len() {
                // Implicit Exit(0): running off the end costs nothing.
                self.trace_core_end(core, now);
                self.trace_end_proc(pid, now);
                self.voluntary_switch(core, pid, now);
                self.exit_process(pid, 0, now);
                continue;
            }
            let op = self.procs[pid as usize].program.ops[pc].clone();
            match op {
                OsOp::SkipIfChild(n) => {
                    let child = self.procs[pid as usize].regs.last_ret == 0;
                    self.procs[pid as usize].regs.pc += if child { n + 1 } else { 1 };
                    continue;
                }
                OsOp::Compute(cycles) | OsOp::ComputeRepeat { cost: cycles, .. }
                    if matches!(op, OsOp::Compute(_)) && cycles == 0 =>
                {
                    self.procs[pid as usize].regs.pc += 1;
                    continue;
                }
                OsOp::Compute(cycles) => {
                    self.issue_compute(core, pid, now, deadline, cycles);
                    return;
                }
                OsOp::ComputeRepeat { cost, count } => {
                    let total = cost.saturating_mul(count);
                    if total == 0 {
                        self.procs[pid as usize].regs.pc += 1;
                        continue;
                    }
                    self.issue_compute(core, pid, now, deadline, total);
                    return;
                }
                OsOp::Read(addr) => {
                    let cost = self.access_cost(core, now, addr, false, false);
                    self.announce_mem(core, now, cost, 1, true);
                    return;
                }
                OsOp::Write(addr) => {
                    let cost = self.access_cost(core, now, addr, true, false);
                    self.announce_mem(core, now, cost, 1, true);
                    return;
                }
                OsOp::AtomicRmw(addr) => {
                    let cost = self.access_cost(core, now, addr, true, true);
                    self.announce_mem(core, now, cost, 1, true);
                    return;
                }
                OsOp::ReadStride {
                    base,
                    stride,
                    count,
                }
                | OsOp::WriteStride {
                    base,
                    stride,
                    count,
                } => {
                    if count == 0 {
                        self.procs[pid as usize].regs.pc += 1;
                        continue;
                    }
                    let write = matches!(op, OsOp::WriteStride { .. });
                    let done = self.procs[pid as usize].regs.unit_progress;
                    let n = (count - done).min(self.cfg.mem_batch.max(1));
                    let mut cost = 0;
                    for k in 0..n {
                        cost += self.access_cost(
                            core,
                            now,
                            base.wrapping_add((done + k).wrapping_mul(stride)),
                            write,
                            false,
                        );
                    }
                    self.announce_mem(core, now, cost, n, done + n >= count);
                    return;
                }
                OsOp::Trap(sys) => {
                    // End the slice; the trap step is its own span.
                    self.trace_core_end(core, now);
                    self.trace_end_proc(pid, now);
                    self.trace_core_begin(core, now, sys.name(), category::SYSCALL, pid as u64);
                    let c = &mut self.cores[core];
                    c.pending = Micro::Trap(sys);
                    c.busy_until = Some(now + self.cfg.trap_cost);
                    return;
                }
            }
        }
    }

    fn issue_compute(
        &mut self,
        core: usize,
        pid: Pid,
        now: Cycles,
        deadline: Cycles,
        total: Cycles,
    ) {
        let pcb = &mut self.procs[pid as usize];
        let remaining = if pcb.regs.burst_remaining > 0 {
            pcb.regs.burst_remaining
        } else {
            total
        };
        pcb.regs.burst_remaining = remaining;
        let horizon = deadline.saturating_sub(now).max(1);
        let step = remaining.min(horizon);
        let c = &mut self.cores[core];
        c.pending = Micro::Compute(step);
        c.busy_until = Some(now + step);
    }

    fn announce_mem(
        &mut self,
        core: usize,
        now: Cycles,
        cost: Cycles,
        ops: u64,
        completes_op: bool,
    ) {
        let c = &mut self.cores[core];
        c.pending = Micro::Mem {
            cost,
            ops,
            completes_op,
        };
        c.busy_until = Some(now + cost.max(1));
    }

    /// The next event at or after `now`: the sleep queue's first wake
    /// (`None`), or core `c`'s step (`Some(c)`) — the end of its
    /// micro-step, or a dispatch when it is idle with work queued. Ties
    /// go to the sleep queue, then to cores in index order.
    fn next_event(&self, now: Cycles) -> Option<(Cycles, Option<usize>)> {
        let mut next = self.sleepers.first().map(|&(t, _)| (t.max(now), None));
        for (core, c) in self.cores.iter().enumerate() {
            let due = match c.busy_until {
                Some(t) => t,
                None if c.running.is_none() && self.sched.queued() > 0 => self.ready_stamp,
                None => continue,
            };
            let due = due.max(now);
            if next.is_none_or(|(t, _)| due < t) {
                next = Some((due, Some(core)));
            }
        }
        next
    }

    /// Wakes every sleeper whose deadline has come.
    fn wake_sleepers(&mut self, now: Cycles) {
        while let Some(&(until, pid)) = self.sleepers.first() {
            if until > now {
                break;
            }
            self.sleepers.pop_first();
            self.trace_end_proc(pid, now); // close the sleep span
            self.make_ready(pid, now);
        }
    }
}

// --- reports -------------------------------------------------------------

/// Per-process accounting in an [`OsReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcReport {
    /// The process.
    pub pid: Pid,
    /// Parent pid at exit (None for roots and orphans).
    pub parent: Option<Pid>,
    /// Static priority.
    pub priority: u8,
    /// CPU cycles executed (compute + memory latencies).
    pub cpu_cycles: Cycles,
    /// Schedule-independent retired work (compute cycles + memory ops).
    pub retired_work: u64,
    /// Times switched onto a core.
    pub context_switches: u64,
    /// Quantum-expiry preemptions suffered.
    pub involuntary_preemptions: u64,
    /// Voluntary yields made.
    pub voluntary_yields: u64,
    /// Syscalls entered.
    pub syscalls: u64,
    /// Longest single Ready→dispatch wait.
    pub max_ready_wait: Cycles,
    /// Virtual completion time (0 if never completed).
    pub completed_at: Cycles,
    /// Exit code (None if the run ended with the process not exited).
    pub exit_code: Option<i32>,
}

/// The result of one OS run. All fields are integers and the digest is
/// a pure function of them, so a report is bit-comparable across runs
/// and hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsReport {
    /// The scheduler that produced the run.
    pub scheduler: &'static str,
    /// Virtual makespan: time of the last kernel event.
    pub makespan: Cycles,
    /// Total context switches (dispatches with switch-in cost).
    pub context_switches: u64,
    /// Total quantum-expiry preemptions.
    pub involuntary_preemptions: u64,
    /// Total voluntary yields.
    pub voluntary_yields: u64,
    /// Total syscalls.
    pub syscalls: u64,
    /// Total retired work across all processes — scheduler-invariant.
    pub retired_work: u64,
    /// Per-process rows in pid order.
    pub procs: Vec<ProcReport>,
}

impl OsReport {
    /// Max − min completion time over completed processes: the
    /// fairness spread (how unevenly the scheduler finished an
    /// identical cohort).
    pub fn completion_spread(&self) -> Cycles {
        let done: Vec<Cycles> = self
            .procs
            .iter()
            .filter(|p| p.exit_code.is_some())
            .map(|p| p.completed_at)
            .collect();
        match (done.iter().max(), done.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// Canonical text form: every accounting field, integers only.
    /// The digest is the FNV-1a hash of this string.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "os-report/v1 sched={} makespan={} ctx={} preempt={} yield={} sys={} retired={}\n",
            self.scheduler,
            self.makespan,
            self.context_switches,
            self.involuntary_preemptions,
            self.voluntary_yields,
            self.syscalls,
            self.retired_work
        );
        for p in &self.procs {
            let _ = writeln!(
                out,
                "pid={} parent={} prio={} cpu={} retired={} ctx={} preempt={} yield={} sys={} maxwait={} done={} exit={}",
                p.pid,
                p.parent.map_or(-1, |x| x as i64),
                p.priority,
                p.cpu_cycles,
                p.retired_work,
                p.context_switches,
                p.involuntary_preemptions,
                p.voluntary_yields,
                p.syscalls,
                p.max_ready_wait,
                p.completed_at,
                p.exit_code.map_or(i64::MIN, |c| c as i64)
            );
        }
        out
    }

    /// FNV-1a digest of [`OsReport::canonical`].
    pub fn digest(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// The OS machine front-end.
#[derive(Debug, Clone)]
pub struct Os {
    cfg: OsConfig,
}

impl Os {
    /// An OS over the given configuration.
    ///
    /// # Panics
    /// Panics on a zero timeslice: every slice would be over before it
    /// ran, so an oversubscribed core would preempt forever.
    pub fn new(cfg: OsConfig) -> Self {
        assert!(cfg.timeslice >= 1, "timeslice must be positive");
        Os { cfg }
    }

    /// The quad-core Pi defaults.
    pub fn pi() -> Self {
        Os::new(OsConfig::pi())
    }

    /// Runs `procs` (program, priority) to completion under `sched`.
    pub fn run(&self, procs: Vec<(ProcProgram, u8)>, sched: Box<dyn Scheduler>) -> OsReport {
        self.run_inner(procs, sched, false).0
    }

    /// Like [`Os::run`], also recording an `obs::trace` with per-core
    /// and per-process lanes, `syscall` trap spans, and `preempt`
    /// context-switch instants.
    pub fn run_traced(
        &self,
        procs: Vec<(ProcProgram, u8)>,
        sched: Box<dyn Scheduler>,
    ) -> (OsReport, Trace) {
        let (report, trace) = self.run_inner(procs, sched, true);
        (report, trace.expect("traced run yields a trace"))
    }

    fn run_inner(
        &self,
        procs: Vec<(ProcProgram, u8)>,
        sched: Box<dyn Scheduler>,
        traced: bool,
    ) -> (OsReport, Option<Trace>) {
        let mut os = OsState::new(self.cfg.clone(), sched, traced);
        for (program, priority) in procs {
            let pid = os.spawn(None, program, priority);
            os.make_ready(pid, 0);
        }
        let mut now = 0;
        while let Some((t, core)) = os.next_event(now) {
            now = t;
            match core {
                None => os.wake_sleepers(now),
                Some(core) => {
                    // Committing is a no-op on an idle core.
                    os.commit(core, now);
                    os.issue(core, now);
                }
            }
        }
        os.into_report(now)
    }
}

impl OsState {
    fn into_report(mut self, makespan: Cycles) -> (OsReport, Option<Trace>) {
        let scheduler = self.sched.name();
        let procs: Vec<ProcReport> = self
            .procs
            .iter()
            .map(|p| ProcReport {
                pid: p.pid,
                parent: p.parent,
                priority: p.priority,
                cpu_cycles: p.cpu_cycles,
                retired_work: p.retired_work,
                context_switches: p.context_switches,
                involuntary_preemptions: p.involuntary_preemptions,
                voluntary_yields: p.voluntary_yields,
                syscalls: p.syscalls,
                max_ready_wait: p.max_ready_wait,
                completed_at: p.completed_at,
                exit_code: p.exit_code,
            })
            .collect();
        let report = OsReport {
            scheduler,
            makespan,
            context_switches: self.context_switches,
            involuntary_preemptions: procs.iter().map(|p| p.involuntary_preemptions).sum(),
            voluntary_yields: procs.iter().map(|p| p.voluntary_yields).sum(),
            syscalls: self.syscalls,
            retired_work: procs.iter().map(|p| p.retired_work).sum(),
            procs,
        };
        let trace = self.tracer.take().map(|tr| tr.rec.finish());
        (report, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Cfs, PriorityRr, RoundRobin};

    fn compute_procs(n: usize, cycles: Cycles) -> Vec<(ProcProgram, u8)> {
        (0..n)
            .map(|_| (ProcProgram::new().compute(cycles), 0))
            .collect()
    }

    #[test]
    fn single_process_runs_to_completion() {
        let r = Os::pi().run(compute_procs(1, 10_000), Box::new(RoundRobin::new()));
        assert_eq!(r.procs.len(), 1);
        assert_eq!(r.procs[0].exit_code, Some(0));
        assert_eq!(r.procs[0].retired_work, 10_000);
        assert_eq!(r.context_switches, 1);
        assert_eq!(r.involuntary_preemptions, 0);
        // Makespan = ctx-in + compute.
        assert_eq!(r.makespan, 1_000 + 10_000);
    }

    #[test]
    fn oversubscription_preempts_and_retires_all_work() {
        // 5 processes, 4 cores, each 4x the timeslice: preemption must
        // occur and every process must finish all its work.
        let cfg = OsConfig::pi();
        let per = cfg.timeslice * 4;
        let r = Os::new(cfg).run(compute_procs(5, per), Box::new(RoundRobin::new()));
        assert!(r.involuntary_preemptions > 0, "{r:?}");
        assert_eq!(r.retired_work, 5 * per);
        assert!(r.procs.iter().all(|p| p.exit_code == Some(0)));
    }

    #[test]
    fn runs_replay_bit_identically() {
        let mk = || {
            let procs = (0..5)
                .map(|i| {
                    (
                        ProcProgram::new()
                            .compute(120_000)
                            .read_stride(i << 20, 64, 100)
                            .yield_cpu()
                            .compute(80_000),
                        (i % 2) as u8,
                    )
                })
                .collect();
            Os::pi().run(procs, Box::new(Cfs::new()))
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
    }

    #[test]
    fn fork_wait_exit_maintains_the_process_tree() {
        // Parent forks; the child (last_ret == 0) jumps over the
        // parent's ops, computes, and exits 7; the parent waits for it
        // and exits 0.
        let prog = ProcProgram::new()
            .fork()
            .skip_if_child(2) // child jumps over the parent branch
            .wait() // parent
            .exit(0) // parent
            .compute(5_000) // child
            .exit(7); // child
        let r = Os::pi().run(vec![(prog, 0)], Box::new(RoundRobin::new()));
        assert_eq!(r.procs.len(), 2);
        assert_eq!(r.procs[0].exit_code, Some(0));
        assert_eq!(r.procs[1].exit_code, Some(7));
        assert_eq!(r.procs[1].parent, Some(0));
        assert!(r.procs[1].completed_at <= r.procs[0].completed_at);
    }

    #[test]
    fn sleep_blocks_and_wakes_at_the_deadline() {
        let prog = ProcProgram::new()
            .compute(1_000)
            .sleep(500_000)
            .compute(1_000);
        let r = Os::pi().run(vec![(prog, 0)], Box::new(RoundRobin::new()));
        assert_eq!(r.procs[0].exit_code, Some(0));
        assert!(r.makespan >= 500_000, "sleep must hold the clock: {r:?}");
        assert_eq!(r.procs[0].retired_work, 2_000);
    }

    #[test]
    fn kill_terminates_a_ready_process() {
        // pid 0 kills pid 1 before it finishes its long compute.
        let killer = ProcProgram::new().kill(1).exit(0);
        let victim = ProcProgram::new().compute(100_000_000);
        let r = Os::new(OsConfig::pi_with_cores(1))
            .run(vec![(killer, 0), (victim, 0)], Box::new(RoundRobin::new()));
        assert_eq!(r.procs[1].exit_code, Some(-9));
        assert!(r.makespan < 100_000_000);
    }

    #[test]
    fn signal_interrupt_wakes_a_sleeper_early() {
        let sleeper = ProcProgram::new().sleep(1_000_000_000);
        let signaler = ProcProgram::new()
            .compute(10_000)
            .signal(0, Signal::Interrupt);
        let r = Os::pi().run(
            vec![(sleeper, 0), (signaler, 0)],
            Box::new(RoundRobin::new()),
        );
        assert_eq!(r.procs[0].exit_code, Some(0));
        assert!(
            r.makespan < 1_000_000,
            "EINTR wake must cut the sleep short"
        );
    }

    #[test]
    fn exec_replaces_the_program() {
        let replacement = ProcProgram::new().compute(3_000).exit(42);
        let prog = ProcProgram::new().compute(1_000).exec(replacement);
        let r = Os::pi().run(vec![(prog, 0)], Box::new(RoundRobin::new()));
        assert_eq!(r.procs[0].exit_code, Some(42));
        assert_eq!(r.procs[0].retired_work, 4_000);
    }

    #[test]
    fn priority_rr_runs_high_priority_first() {
        // One core, two priorities: both ready at t=0, the priority-0
        // process must finish first even though it was spawned second.
        let cfg = OsConfig::pi_with_cores(1);
        let per = cfg.timeslice * 3;
        let procs = vec![
            (ProcProgram::new().compute(per), 1),
            (ProcProgram::new().compute(per), 0),
        ];
        let r = Os::new(cfg).run(procs, Box::new(PriorityRr::new()));
        assert!(r.procs[1].completed_at < r.procs[0].completed_at, "{r:?}");
    }

    #[test]
    fn cfs_shares_a_core_more_fairly_than_fifo_order() {
        let cfg = OsConfig::pi_with_cores(2);
        let per = cfg.timeslice * 6;
        let r = Os::new(cfg.clone()).run(compute_procs(4, per), Box::new(Cfs::new()));
        assert_eq!(r.retired_work, 4 * per);
        // With equal weights everyone gets preempted and completion
        // times cluster: spread well under one process's full runtime.
        assert!(r.completion_spread() < per, "{r:?}");
    }

    #[test]
    #[should_panic(expected = "timeslice must be positive")]
    fn zero_timeslice_panics() {
        let _ = Os::new(OsConfig {
            timeslice: 0,
            ..OsConfig::pi()
        });
    }

    #[test]
    fn traced_run_matches_untraced_report() {
        let mk_procs = || compute_procs(5, 150_000);
        let plain = Os::pi().run(mk_procs(), Box::new(RoundRobin::new()));
        let (traced, trace) = Os::pi().run_traced(mk_procs(), Box::new(RoundRobin::new()));
        assert_eq!(plain, traced, "observer effect: tracing changed the run");
        let analysis = obs::trace::analyze::analyze(&trace);
        assert!(analysis.attribution_is_exact());
        let (total, invol) = analysis.context_switches().expect("OS trace has switches");
        assert_eq!(invol, traced.involuntary_preemptions);
        // Voluntary switch instants: one per exit plus one per yield.
        assert_eq!(total - invol, 5 + traced.voluntary_yields);
    }
}
