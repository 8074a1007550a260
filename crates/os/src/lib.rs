//! # pbl-os — an operating system inside pi-sim
//!
//! The paper's central timing experiments — 4 vs 5 threads on 4 Pi
//! cores, static vs guided scheduling — are really questions about
//! *preemption and oversubscription*, which the cooperative pi-sim
//! cores cannot express. This crate adds the missing OS layer, built
//! so the scheduler itself is an inspectable artifact rather than an
//! opaque host facility:
//!
//! * [`process`] — processes as data: a PCB with a register/PC
//!   snapshot, the `Ready/Running/Blocked/Zombie` state machine, and a
//!   parent/child tree.
//! * [`sched`] — the pluggable [`sched::Scheduler`] trait with
//!   round-robin, priority round-robin, and a CFS-style integer
//!   vruntime scheduler (deterministic `(vruntime, pid)` tie-breaks).
//! * [`syscall`] — `fork/exec/wait/sleep/yield/kill/signal/exit`,
//!   entered through an explicit trap step so every context switch is
//!   a replayable event.
//! * [`kernel`] — the machine: one event loop over the CPU cores and
//!   the sleep queue, costing memory through pi-sim's cache hierarchy
//!   and latency rule, so preemption interleaves with the cache/bus
//!   model in a single deterministic virtual-time order.
//! * [`study`] — the paper scenarios: the oversubscription sweep
//!   (P processes on C cores) and static-vs-guided patternlet loops
//!   executed as preemptible processes.
//!
//! Everything is bit-identical across runs and hosts: time is virtual,
//! ties at one time go to the sleep queue and then to cores in index
//! order, and every report carries an FNV-1a digest that CI pins in
//! `BENCH_os.json`.
//!
//! ```
//! use os::kernel::{Os, OsConfig};
//! use os::process::ProcProgram;
//! use os::sched::RoundRobin;
//!
//! // Five identical compute processes on a four-core Pi: the paper's
//! // "increase the number of threads to 5" question, now first-class.
//! let procs = (0..5)
//!     .map(|_| (ProcProgram::new().compute(200_000), 0))
//!     .collect();
//! let report = Os::new(OsConfig::pi()).run(procs, Box::new(RoundRobin::new()));
//! assert_eq!(report.procs.len(), 5);
//! assert!(report.involuntary_preemptions > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kernel;
pub mod process;
pub mod sched;
pub mod study;
pub mod syscall;

pub use kernel::{Os, OsConfig, OsReport, ProcReport};
pub use process::{Pcb, Pid, ProcProgram, ProcState};
pub use sched::{Cfs, PriorityRr, RoundRobin, Scheduler};
pub use syscall::{Signal, Syscall};
