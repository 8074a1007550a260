//! # parallel-rt — an OpenMP-like shared-memory runtime in safe Rust
//!
//! The course teaches shared-memory parallelism through OpenMP pragmas on
//! a Raspberry Pi. This crate is the Rust equivalent of that runtime: it
//! provides the same constructs the patternlets exercise, with the same
//! semantics students observe:
//!
//! | OpenMP | parallel-rt |
//! |---|---|
//! | `#pragma omp parallel` | [`Team::parallel`] (fork–join) |
//! | `omp_get_thread_num()/num_threads()` | [`ThreadCtx::id`] / [`ThreadCtx::num_threads`] |
//! | `#pragma omp parallel for` | [`Team::parallel_for`] |
//! | `schedule(static/dynamic/guided, chunk)` | [`schedule::Schedule`] |
//! | `reduction(+:x)` | [`Team::parallel_for_reduce`], [`reduction`] |
//! | `#pragma omp barrier` | [`ThreadCtx::barrier`] |
//! | `#pragma omp critical` | [`ThreadCtx::critical`] |
//! | `#pragma omp single` / `master` | [`ThreadCtx::single`] / [`ThreadCtx::if_master`] |
//! | `#pragma omp sections` | [`Team::sections`] |
//! | `OMP_NUM_THREADS` | the `PRT_NUM_THREADS` environment variable |
//! | master–worker pattern | [`master_worker`](mod@master_worker) |
//!
//! Two backends share the constructs:
//! * **real threads** (`std::thread::scope`) — correct everywhere, but on
//!   a 1-core host it cannot show speedups;
//! * **simulated** ([`sim`]) — lowers loop workloads onto the
//!   deterministic [`pi_sim`] quad-core machine, reproducing the paper's
//!   timing shapes on any host.
//!
//! The data-race pedagogy of Assignment 2 ("scope matters") lives in
//! [`race`]: safe Rust forbids true data races, so the racy OpenMP
//! program is emulated with a non-atomic read–modify–write sequence that
//! loses updates exactly the way the students' `count++` does.
//! [`explore`] goes further: it models the patternlet family under a
//! controlled scheduler and *searches* the interleaving space — finding
//! the race deterministically, shrinking the counterexample to a
//! minimal schedule, and certifying each fix race-free over the
//! explored space.
//!
//! ```
//! use parallel_rt::{Team, Schedule};
//! use parallel_rt::reduction::Sum;
//!
//! // #pragma omp parallel for reduction(+:total) schedule(dynamic, 8)
//! let team = Team::new(4);
//! let total: u64 =
//!     team.parallel_for_reduce(0..10_000, Schedule::Dynamic(8), Sum, |i| i as u64);
//! assert_eq!(total, 49_995_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod barrier;
pub mod data_env;
pub mod explore;
pub mod forloop;
pub mod master_worker;
pub mod race;
pub mod reduction;
pub mod schedule;
pub mod sim;
pub mod sync;
pub mod team;

pub use master_worker::master_worker;
pub use schedule::Schedule;
pub use sim::{plan_assignment, CostModel};
pub use team::{Team, ThreadCtx};
