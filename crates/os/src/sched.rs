//! Pluggable preemptive schedulers.
//!
//! The kernel owns *when* scheduling decisions happen (quantum expiry,
//! block, exit — all kernel events); a [`Scheduler`] only decides *who*
//! runs next. Every implementation is fully deterministic: queues are
//! FIFO per class and the CFS tree breaks ties on `(vruntime, pid)`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use pi_sim::event::Cycles;

use crate::process::{Pcb, Pid};

/// A run-queue policy.
pub trait Scheduler {
    /// The policy's name (report and digest label).
    fn name(&self) -> &'static str;
    /// `pcb` became runnable: add it to the run queue.
    fn enqueue(&mut self, pcb: &Pcb);
    /// Remove and return the next process to run, if any.
    fn pick(&mut self) -> Option<Pid>;
    /// Account `ran` cycles of CPU to `pcb` (vruntime bookkeeping).
    fn charge(&mut self, pcb: &mut Pcb, ran: Cycles);
    /// Number of queued runnable processes.
    fn queued(&self) -> usize;
}

/// Classic round-robin: one FIFO queue, equal slices for everyone.
#[derive(Debug, Default)]
pub struct RoundRobin {
    queue: VecDeque<Pid>,
}

impl RoundRobin {
    /// An empty round-robin queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "rr"
    }
    fn enqueue(&mut self, pcb: &Pcb) {
        self.queue.push_back(pcb.pid);
    }
    fn pick(&mut self) -> Option<Pid> {
        self.queue.pop_front()
    }
    fn charge(&mut self, _pcb: &mut Pcb, _ran: Cycles) {}
    fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// Priority round-robin: one FIFO queue per priority level, strictly
/// highest (numerically lowest) level first — a starvation-prone
/// policy on purpose, so the oversubscription study can show it.
#[derive(Debug, Default)]
pub struct PriorityRr {
    queues: BTreeMap<u8, VecDeque<Pid>>,
    queued: usize,
}

impl PriorityRr {
    /// An empty priority round-robin queue set.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for PriorityRr {
    fn name(&self) -> &'static str {
        "prio_rr"
    }
    fn enqueue(&mut self, pcb: &Pcb) {
        self.queues
            .entry(pcb.priority)
            .or_default()
            .push_back(pcb.pid);
        self.queued += 1;
    }
    fn pick(&mut self) -> Option<Pid> {
        let (&level, _) = self.queues.iter().find(|(_, q)| !q.is_empty())?;
        let pid = self.queues.get_mut(&level)?.pop_front()?;
        self.queued -= 1;
        Some(pid)
    }
    fn charge(&mut self, _pcb: &mut Pcb, _ran: Cycles) {}
    fn queued(&self) -> usize {
        self.queued
    }
}

/// CFS-style fair scheduler over an integer virtual runtime.
///
/// The run queue is an ordered set of `(vruntime, pid)` — always pick
/// the smallest, ties broken by pid, so the order is deterministic with
/// no red-black-tree insertion nondeterminism to worry about. Charging
/// `ran` cycles advances vruntime by `ran * (1 + priority)`: priority 0
/// accrues at wall (virtual) rate, lower priorities proportionally
/// faster, so they run proportionally less. A process enqueued after a
/// sleep is clamped up to the minimum vruntime seen, so sleepers cannot
/// bank unbounded credit. Integer arithmetic throughout.
#[derive(Debug, Default)]
pub struct Cfs {
    tree: BTreeSet<(u64, Pid)>,
    min_vruntime: u64,
}

impl Cfs {
    /// An empty CFS run queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// The clamp floor: the smallest vruntime observed at any pick.
    pub fn min_vruntime(&self) -> u64 {
        self.min_vruntime
    }
}

impl Scheduler for Cfs {
    fn name(&self) -> &'static str {
        "cfs"
    }
    fn enqueue(&mut self, pcb: &Pcb) {
        let key = pcb.vruntime.max(self.min_vruntime);
        self.tree.insert((key, pcb.pid));
    }
    fn pick(&mut self) -> Option<Pid> {
        let (vruntime, pid) = self.tree.pop_first()?;
        self.min_vruntime = self.min_vruntime.max(vruntime);
        Some(pid)
    }
    fn charge(&mut self, pcb: &mut Pcb, ran: Cycles) {
        let weight = 1 + pcb.priority as u64;
        pcb.vruntime = pcb.vruntime.saturating_add(ran.saturating_mul(weight));
        // Keep the clamp floor from racing ahead of reality: it only
        // rises at picks, which is exactly "the least-run runnable
        // process's position".
        pcb.vruntime = pcb.vruntime.max(self.min_vruntime);
    }
    fn queued(&self) -> usize {
        self.tree.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ProcProgram;

    fn pcb(pid: Pid, priority: u8) -> Pcb {
        Pcb::new(pid, None, ProcProgram::new(), priority)
    }

    #[test]
    fn round_robin_is_fifo() {
        let mut s = RoundRobin::new();
        for pid in [3, 1, 2] {
            s.enqueue(&pcb(pid, 0));
        }
        assert_eq!(s.queued(), 3);
        assert_eq!(s.pick(), Some(3));
        assert_eq!(s.pick(), Some(1));
        assert_eq!(s.pick(), Some(2));
        assert_eq!(s.pick(), None);
    }

    #[test]
    fn priority_rr_drains_higher_levels_first() {
        let mut s = PriorityRr::new();
        s.enqueue(&pcb(10, 1));
        s.enqueue(&pcb(11, 0));
        s.enqueue(&pcb(12, 1));
        s.enqueue(&pcb(13, 0));
        let order: Vec<Pid> = std::iter::from_fn(|| s.pick()).collect();
        assert_eq!(order, vec![11, 13, 10, 12]);
    }

    #[test]
    fn cfs_picks_least_vruntime_with_pid_tiebreak() {
        let mut s = Cfs::new();
        let mut a = pcb(1, 0);
        let mut b = pcb(2, 0);
        a.vruntime = 100;
        b.vruntime = 100;
        s.enqueue(&b);
        s.enqueue(&a);
        assert_eq!(s.pick(), Some(1), "equal vruntime ties break on pid");
        assert_eq!(s.pick(), Some(2));
    }

    #[test]
    fn cfs_charges_vruntime_weighted_by_priority() {
        let mut s = Cfs::new();
        let mut nice0 = pcb(1, 0);
        let mut nice3 = pcb(2, 3);
        s.charge(&mut nice0, 10);
        s.charge(&mut nice3, 10);
        assert_eq!(nice0.vruntime, 10);
        assert_eq!(nice3.vruntime, 40, "priority 3 accrues 4x faster");
    }

    #[test]
    fn cfs_clamps_sleepers_to_min_vruntime() {
        let mut s = Cfs::new();
        let mut hog = pcb(1, 0);
        s.charge(&mut hog, 1_000);
        s.enqueue(&hog);
        assert_eq!(s.pick(), Some(1));
        assert_eq!(s.min_vruntime(), 1_000);
        // A long-sleeping process with stale vruntime 0 enqueues at the
        // floor, not infinitely in credit.
        let sleeper = pcb(2, 0);
        s.enqueue(&sleeper);
        assert!(s.tree.contains(&(1_000, 2)));
    }
}
