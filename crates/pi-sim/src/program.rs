//! Abstract thread programs executed by the simulated machine.
//!
//! A [`Program`] is a straight-line sequence of coarse-grained [`Op`]s:
//! compute bursts, memory accesses, and synchronisation actions. The
//! OpenMP-like runtime's simulated backend lowers parallel constructs
//! into one program per thread.

use crate::event::Cycles;

/// One abstract operation in a thread program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Pure computation for the given number of cycles.
    Compute(Cycles),
    /// Read the byte at the given address (goes through the caches).
    Read(u64),
    /// Write the byte at the given address (coherence traffic applies).
    Write(u64),
    /// Wait on barrier `id` until `participants` threads have arrived.
    Barrier {
        /// Barrier identity; reusing an id re-uses its arrival counter
        /// generation-wise, so loops over barriers work.
        id: u32,
        /// Number of threads that must arrive before any proceed.
        participants: u32,
    },
    /// Acquire mutual-exclusion lock `id` (blocks if held).
    LockAcquire(u32),
    /// Release lock `id` (must be held by this thread).
    LockRelease(u32),
    /// An atomic read-modify-write on the address: a write that also
    /// pays a fixed RMW penalty, modelling `lock`-prefixed/LL-SC ops.
    AtomicRmw(u64),
    /// Run-length-encoded compute: `count` back-to-back bursts of
    /// `cost` cycles each. Because compute is continuously interruptible
    /// (the machine drains it cycle-by-cycle against the quantum), this
    /// is timing-identical to `count` separate [`Op::Compute`] ops while
    /// occupying one program slot and fast-forwarding in O(1).
    ComputeRepeat {
        /// Cycles per burst.
        cost: Cycles,
        /// Number of bursts.
        count: u64,
    },
    /// Run-length-encoded reads: `count` reads at `base`, `base +
    /// stride`, `base + 2*stride`, … Each access still goes through the
    /// cache hierarchy individually (latency depends on cache state), so
    /// only the program representation is compressed, never the timing.
    ReadStride {
        /// Address of the first read.
        base: u64,
        /// Address increment between consecutive reads.
        stride: u64,
        /// Number of reads.
        count: u64,
    },
    /// Run-length-encoded writes; see [`Op::ReadStride`].
    WriteStride {
        /// Address of the first write.
        base: u64,
        /// Address increment between consecutive writes.
        stride: u64,
        /// Number of writes.
        count: u64,
    },
    /// Run-length-encoded compute-then-atomic pairs: `count` times a
    /// `cost`-cycle [`Op::Compute`] followed by an [`Op::AtomicRmw`] on
    /// `addr`, the body of a reduction that updates one shared
    /// accumulator per iteration. Like [`Op::ReadStride`] it compresses
    /// only the representation: the machine steps it in half-steps (a
    /// burst, then an RMW charged through the cache hierarchy), so it
    /// times exactly like its expansion.
    AtomicRmwRepeat {
        /// Address every RMW updates.
        addr: u64,
        /// Compute cycles before each RMW.
        cost: Cycles,
        /// Number of compute-then-RMW pairs.
        count: u64,
    },
}

impl Op {
    /// Number of unit (non-RLE) operations this op stands for.
    pub fn unit_count(&self) -> u64 {
        match *self {
            Op::ComputeRepeat { count, .. }
            | Op::ReadStride { count, .. }
            | Op::WriteStride { count, .. } => count,
            Op::AtomicRmwRepeat { count, .. } => 2 * count,
            _ => 1,
        }
    }

    /// Cycles of a `Compute`/`ComputeRepeat` op; `None` for any other op.
    /// An [`Op::AtomicRmwRepeat`] is `None` too, so a compute run ends
    /// at it.
    pub(crate) fn compute_cycles(&self) -> Option<Cycles> {
        match *self {
            Op::Compute(c) => Some(c),
            Op::ComputeRepeat { cost, count } => Some(cost * count),
            _ => None,
        }
    }
}

/// A straight-line program for one simulated thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program { ops: Vec::new() }
    }

    /// Builder: append a compute burst.
    pub fn compute(mut self, cycles: Cycles) -> Self {
        self.ops.push(Op::Compute(cycles));
        self
    }

    /// Builder: append a read.
    pub fn read(mut self, addr: u64) -> Self {
        self.ops.push(Op::Read(addr));
        self
    }

    /// Builder: append a write.
    pub fn write(mut self, addr: u64) -> Self {
        self.ops.push(Op::Write(addr));
        self
    }

    /// Builder: append a barrier.
    pub fn barrier(mut self, id: u32, participants: u32) -> Self {
        self.ops.push(Op::Barrier { id, participants });
        self
    }

    /// Builder: append a lock acquire.
    pub fn lock(mut self, id: u32) -> Self {
        self.ops.push(Op::LockAcquire(id));
        self
    }

    /// Builder: append a lock release.
    pub fn unlock(mut self, id: u32) -> Self {
        self.ops.push(Op::LockRelease(id));
        self
    }

    /// Builder: append an atomic read-modify-write.
    pub fn atomic_rmw(mut self, addr: u64) -> Self {
        self.ops.push(Op::AtomicRmw(addr));
        self
    }

    /// Builder: append `count` pairs of a `cost`-cycle compute burst and
    /// an atomic read-modify-write of `addr` as one run-length-encoded
    /// op.
    pub fn atomic_rmw_repeat(mut self, addr: u64, cost: Cycles, count: u64) -> Self {
        self.ops.push(Op::AtomicRmwRepeat { addr, cost, count });
        self
    }

    /// Builder: append `count` compute bursts of `cost` cycles each as
    /// one run-length-encoded op.
    pub fn compute_repeat(mut self, cost: Cycles, count: u64) -> Self {
        self.ops.push(Op::ComputeRepeat { cost, count });
        self
    }

    /// Builder: append `count` strided reads as one run-length-encoded
    /// op.
    pub fn read_stride(mut self, base: u64, stride: u64, count: u64) -> Self {
        self.ops.push(Op::ReadStride {
            base,
            stride,
            count,
        });
        self
    }

    /// Builder: append `count` strided writes as one run-length-encoded
    /// op.
    pub fn write_stride(mut self, base: u64, stride: u64, count: u64) -> Self {
        self.ops.push(Op::WriteStride {
            base,
            stride,
            count,
        });
        self
    }

    /// Builder: append an arbitrary op.
    pub fn op(mut self, op: Op) -> Self {
        self.ops.push(op);
        self
    }

    /// Builder: append all ops of another program.
    pub fn then(mut self, other: &Program) -> Self {
        self.ops.extend_from_slice(&other.ops);
        self
    }

    /// The ops, in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total compute cycles ignoring memory and synchronisation — a lower
    /// bound on the thread's execution time.
    pub fn compute_cycles(&self) -> Cycles {
        self.ops
            .iter()
            .map(|op| match *op {
                Op::AtomicRmwRepeat { cost, count, .. } => cost * count,
                op => op.compute_cycles().unwrap_or(0),
            })
            .sum()
    }

    /// Number of unit operations after notionally expanding every
    /// run-length-encoded block — the length [`Program::expand`] would
    /// produce.
    pub fn unit_len(&self) -> u64 {
        self.ops.iter().map(Op::unit_count).sum()
    }

    /// Expands every run-length-encoded op into its unit-op equivalent.
    ///
    /// The result is the *reference lowering*: by construction the
    /// machine reports bit-identical timing for a program and its
    /// expansion, which the property tests assert. Expansion is O(total
    /// unit ops), so it exists for oracles and debugging, not for the
    /// fast path.
    pub fn expand(&self) -> Program {
        let mut ops = Vec::with_capacity(self.unit_len().min(usize::MAX as u64) as usize);
        for &op in &self.ops {
            match op {
                Op::ComputeRepeat { cost, count } => {
                    ops.extend((0..count).map(|_| Op::Compute(cost)));
                }
                Op::ReadStride {
                    base,
                    stride,
                    count,
                } => {
                    ops.extend(
                        (0..count).map(|i| Op::Read(base.wrapping_add(i.wrapping_mul(stride)))),
                    );
                }
                Op::WriteStride {
                    base,
                    stride,
                    count,
                } => {
                    ops.extend(
                        (0..count).map(|i| Op::Write(base.wrapping_add(i.wrapping_mul(stride)))),
                    );
                }
                Op::AtomicRmwRepeat { addr, cost, count } => {
                    for _ in 0..count {
                        ops.extend([Op::Compute(cost), Op::AtomicRmw(addr)]);
                    }
                }
                unit => ops.push(unit),
            }
        }
        Program { ops }
    }

    /// A compute-only program of `total` cycles split into `chunks`
    /// bursts — convenient for loop workloads.
    pub fn uniform_compute(total: Cycles, chunks: usize) -> Self {
        assert!(chunks > 0, "chunks must be positive");
        let per = total / chunks as Cycles;
        let mut p = Program::new();
        let mut remaining = total;
        for _ in 0..chunks - 1 {
            p = p.compute(per);
            remaining -= per;
        }
        p.compute(remaining)
    }
}

impl FromIterator<Op> for Program {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Program {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let p = Program::new()
            .compute(100)
            .read(0x10)
            .write(0x20)
            .barrier(0, 4)
            .lock(1)
            .unlock(1)
            .atomic_rmw(0x30);
        assert_eq!(p.len(), 7);
        assert_eq!(p.ops()[0], Op::Compute(100));
        assert_eq!(
            p.ops()[3],
            Op::Barrier {
                id: 0,
                participants: 4
            }
        );
    }

    #[test]
    fn compute_cycles_sums_only_compute() {
        let p = Program::new().compute(10).read(0).compute(5).atomic_rmw(1);
        assert_eq!(p.compute_cycles(), 15);
    }

    #[test]
    fn uniform_compute_preserves_total() {
        let p = Program::uniform_compute(1003, 4);
        assert_eq!(p.len(), 4);
        assert_eq!(p.compute_cycles(), 1003);
    }

    #[test]
    #[should_panic(expected = "chunks must be positive")]
    fn uniform_compute_zero_chunks_panics() {
        let _ = Program::uniform_compute(10, 0);
    }

    #[test]
    fn then_concatenates() {
        let a = Program::new().compute(1);
        let b = Program::new().compute(2);
        let c = a.then(&b);
        assert_eq!(c.len(), 2);
        assert_eq!(c.compute_cycles(), 3);
    }

    #[test]
    fn rle_ops_count_units_and_cycles() {
        let p = Program::new()
            .compute_repeat(250, 1_000_000)
            .read_stride(0x1000, 64, 3)
            .write_stride(0x2000, 8, 2)
            .atomic_rmw_repeat(0x3000, 90, 4_375);
        assert_eq!(p.len(), 4, "RLE blocks occupy one slot each");
        assert_eq!(p.unit_len(), 1_000_005 + 2 * 4_375);
        assert_eq!(p.compute_cycles(), 250 * 1_000_000 + 90 * 4_375);
    }

    #[test]
    fn expand_produces_the_unit_lowering() {
        let p = Program::new()
            .compute(7)
            .compute_repeat(5, 3)
            .read_stride(100, 10, 2)
            .write_stride(200, 0, 2)
            .atomic_rmw_repeat(300, 4, 2)
            .barrier(1, 2);
        let e = p.expand();
        assert_eq!(
            e.ops(),
            &[
                Op::Compute(7),
                Op::Compute(5),
                Op::Compute(5),
                Op::Compute(5),
                Op::Read(100),
                Op::Read(110),
                Op::Write(200),
                Op::Write(200),
                Op::Compute(4),
                Op::AtomicRmw(300),
                Op::Compute(4),
                Op::AtomicRmw(300),
                Op::Barrier {
                    id: 1,
                    participants: 2
                },
            ]
        );
        assert_eq!(e.unit_len(), e.len() as u64);
        assert_eq!(e.compute_cycles(), p.compute_cycles());
    }

    #[test]
    fn expand_drops_empty_rle_blocks() {
        let p = Program::new()
            .compute_repeat(5, 0)
            .read_stride(0, 8, 0)
            .atomic_rmw_repeat(0, 5, 0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.unit_len(), 0);
        assert!(p.expand().is_empty());
    }

    #[test]
    fn from_iterator() {
        let p: Program = vec![Op::Compute(1), Op::Read(0)].into_iter().collect();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(Program::new().is_empty());
    }
}
