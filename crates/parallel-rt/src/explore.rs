//! Seeded, fully deterministic schedule-space exploration.
//!
//! Assignment 4's lesson — "race conditions are difficult to reproduce
//! and debug" — is a statement about *uncontrolled* schedulers. This
//! module removes the scheduler from the OS's hands: programs are
//! modeled as per-lane operation lists ([`program`]), a controlled VM
//! serialises them one shared-access step at a time ([`vm`]), and the
//! interleaving becomes a first-class value (the *choice string*) that
//! can be searched, replayed bit-identically, and shrunk.
//!
//! The pipeline:
//!
//! 1. [`program::Program`] — model of a patternlet over shared vars /
//!    locks / barriers ([`crate::race::patternlet_program`] bridges the
//!    Assignment-2 shared-counter family into it);
//! 2. [`vm::Vm`] — controlled scheduler; every run records its choice
//!    string and (optionally) a virtual-time [`obs::trace`] whose FNV
//!    digest is the bit-identity oracle;
//! 3. [`vclock::Detector`] — happens-before race detection with vector
//!    clocks, run *inside* every execution;
//! 4. [`search`] — random interleaving search from split seeds
//!    ([`search::fuzz`]) and sleep-set DPOR over the bounded space
//!    ([`search::systematic`]), both producing a
//!    [`search::StrategyReport`] that either certifies race-freedom
//!    over the explored space or carries a replayable
//!    [`search::Counterexample`];
//! 5. [`shrink`](mod@shrink) — delta-debugging the counterexample's choice string
//!    to a 1-minimal schedule that still exposes the same race
//!    signature.
//!
//! ```
//! use parallel_rt::explore::{search, shrink};
//! use parallel_rt::race::{patternlet_program, FixStrategy};
//!
//! // The buggy patternlet: the explorer finds the race...
//! let buggy = patternlet_program(FixStrategy::None, 2, 2);
//! let report = search::fuzz(&buggy, 42, search::Budget::schedules(16));
//! let cex = report.counterexample.expect("the race is found");
//!
//! // ...shrinks it to a minimal schedule that still reproduces it...
//! let minimal = shrink::shrink(&buggy, &cex.choices, cex.race_signature);
//! assert!(shrink::reproduces(&buggy, &minimal, cex.race_signature));
//!
//! // ...while every fix certifies clean over the whole space.
//! let fixed = patternlet_program(FixStrategy::Atomic, 2, 2);
//! let proof = search::systematic(&fixed, search::Budget::schedules(100_000));
//! assert!(proof.certified() && proof.space_exhausted);
//! ```

pub mod program;
pub mod search;
pub mod shrink;
pub mod vclock;
pub mod vm;

pub use program::{AccessKind, Finalize, Op, Program};
pub use search::{fuzz, systematic, Budget, Counterexample, StrategyReport};
pub use shrink::{shrink, shrink_counterexample};
pub use vclock::{Detector, RaceReport};
pub use vm::{replay, run_random, run_with_trace, Execution, Vm};
