//! # patternlets — the CSinParallel shared-memory patternlets
//!
//! Assignments 2–4 of the course have every team create, compile, run,
//! and *modify* a fixed set of small OpenMP programs ("patternlets"),
//! each built to make one parallel-programming concept observable. This
//! crate reimplements that catalogue on the [`parallel_rt`] runtime.
//! Every patternlet returns an inspectable [`trace::Trace`] or a value,
//! so its teaching point is *testable*, not just printable:
//!
//! * Assignment 2 — [`forkjoin`], [`spmd`], [`private_shared`] (the
//!   data-race / "scope matters" demonstration).
//! * Assignment 3 — [`schedule_demo`] (equal chunks; chunks of 1, 2, 3;
//!   static vs dynamic) and [`reduction_demo`] (loops with
//!   dependencies → `reduction` clause).
//! * Assignment 4 — [`trapezoid`] (private/shared/reduction clauses),
//!   [`barrier_demo`] (coordination, thread count from the command
//!   line), and [`masterworker_demo`].
//!
//! [`catalog`](mod@catalog) indexes them all with the assignment each belongs to.
//!
//! ```
//! // The fork-join patternlet: hello lines appear between fork and join.
//! let trace = patternlets::forkjoin::run(4);
//! assert_eq!(trace.phase_events("parallel").len(), 4);
//! assert!(trace.phase_precedes("before-fork", "parallel"));
//! assert!(trace.phase_precedes("parallel", "after-join"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod barrier_demo;
pub mod catalog;
pub mod forkjoin;
pub mod masterworker_demo;
pub mod private_shared;
pub mod reduction_demo;
pub mod schedule_demo;
pub mod spmd;
pub mod trace;
pub mod trapezoid;

pub use catalog::{catalog, Assignment, Patternlet};
pub use trace::{Trace, TraceEvent};
