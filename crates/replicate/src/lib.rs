//! # pbl-replicate — the deterministic parallel replication engine
//!
//! PR 1 made a single simulated run cheap; this crate makes *many* runs
//! cheap. A batch of N independent replicates (cohort draws, study
//! analyses, resampling batteries, …) is fanned out across real OS
//! threads, with two guarantees:
//!
//! 1. **Determinism.** Replicate `i` draws from an independent RNG
//!    stream derived by SplitMix64 seed-splitting
//!    ([`stats::rng::StreamSeeder`]) from one master seed. A replicate's
//!    result is a pure function of `(master seed, i)`, so the batch
//!    output is **bit-identical for every thread count and every
//!    scheduling order** — the replicate-level mirror of the simulation
//!    core's RLE invariant.
//! 2. **Order.** Results come back in replicate order, whatever order
//!    the workers finished in.
//!
//! Work is distributed over a chunked [`crossbeam::channel`] queue
//! (chunks amortise channel traffic; idle workers pull the next chunk,
//! so an expensive replicate does not stall the batch). Observation
//! reads the batch's [`BatchShape`] after the run: its chunk counters
//! and chunk-lifecycle trace depend on the batch size and chunk width
//! alone, never on the thread count.
//!
//! ```
//! use replicate::ReplicationEngine;
//!
//! let engine = ReplicationEngine::new(4);
//! let sums: Vec<u64> = engine.run(100, 42, |ctx| {
//!     let mut rng = ctx.rng();
//!     (0..10).map(|_| rng.next_u64() >> 32).sum()
//! });
//! // Same master seed, any thread count → the same batch, bit for bit.
//! assert_eq!(sums, ReplicationEngine::new(1).run(100, 42, |ctx| {
//!     let mut rng = ctx.rng();
//!     (0..10).map(|_| rng.next_u64() >> 32).sum()
//! }));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;

pub use engine::{BatchShape, ReplicateCtx, ReplicationEngine, DEFAULT_CHUNK};
pub use stats::rng::{StreamSeeder, Xoshiro256};
