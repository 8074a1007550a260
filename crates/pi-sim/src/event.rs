//! Virtual time: the clock both simulators run on.
//!
//! Each simulator drives its own loop over it — [`crate::machine`]'s
//! per-core slice slots and `pbl-os`'s cores and sleep queue — and both
//! are pure functions of their inputs, so a run replays bit for bit.

/// Virtual time in cycles.
pub type Cycles = u64;
