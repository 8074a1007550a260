//! # pi-sim — a deterministic Raspberry Pi SoC simulator
//!
//! The course under study hands every team a Raspberry Pi and asks them to
//! explore its multicore architecture and run shared-memory parallel
//! programs on it. This host has no Pi (and only one CPU core), so this
//! crate provides the substitute substrate: a discrete-event simulation of
//! a quad-core ARM SoC with private L1 caches, a shared L2, a contended
//! memory bus, an OS-style time-slicing scheduler, lock and barrier
//! primitives, and virtual-time accounting.
//!
//! Because time is virtual, speedup curves are deterministic and
//! reproducible on any host — exactly what the paper's Assignment 5
//! timing questions ("which approach is fastest?", "increase the number
//! of threads to 5", "increase the maximum ligand length to 7") need.
//!
//! Modules:
//! * [`soc`] — the SoC component inventory (Assignment 2/3 questions).
//! * [`isa`] — ARM (RISC) vs x86 (CISC) instruction-set comparison model.
//! * [`flynn`] — Flynn's taxonomy (the Assignment 3 classification).
//! * [`event`] — virtual time ([`event::Cycles`]).
//! * [`cache`] — L1/L2 hierarchy with MESI-style invalidation.
//! * [`machine`] — cores, scheduler, locks, barriers, virtual clocks, and
//!   the memory-latency rule [`MachineConfig::access_latency`] that
//!   `pbl-os` shares.
//! * [`program`] — the abstract thread programs the machine executes.
//! * [`boot`] — the SD-image flash / boot-sequence state machine
//!   (Assignment 2's setup steps).
//! * [`perf`] — speedup, efficiency, Amdahl/Gustafson laws, Karp–Flatt.
//!
//! ```
//! use pi_sim::machine::Machine;
//! use pi_sim::program::Program;
//!
//! // The same total work on 1 vs 4 software threads of the 4-core Pi.
//! let one = Machine::pi().run(vec![Program::new().compute(4_000_000)]);
//! let four = Machine::pi().run(
//!     (0..4).map(|_| Program::new().compute(1_000_000)).collect(),
//! );
//! let speedup = one.total_cycles as f64 / four.total_cycles as f64;
//! assert!(speedup > 3.9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod boot;
pub mod cache;
pub mod event;
pub mod flynn;
pub mod isa;
pub mod machine;
pub mod perf;
pub mod program;
pub mod soc;
pub mod trace;

pub use machine::{Machine, MachineConfig, RunReport, ThreadReport};
pub use program::{Op, Program};
pub use soc::{PiModel, SocSpec};
pub use trace::{ExecutionTrace, TraceSegment};
