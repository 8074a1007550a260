//! # pbl-serve — the deterministic multi-tenant job service
//!
//! The repo's engines (pi-sim, parallel-rt patternlets, mapreduce, the
//! replication engine, the report generator) are each reachable from
//! one-shot binaries; this crate puts a **service layer** in front of
//! all of them, modelled on the course it reproduces: 26 teams
//! repeatedly submitting near-identical runs against shared hardware
//! is a multi-tenant job queue with heavy result reuse.
//!
//! The pieces, one module each:
//!
//! * [`spec`] — the typed [`JobSpec`]: a canonical byte
//!   encoding (injective by construction) whose FNV-1a digest is the
//!   job's content address.
//! * [`sched`] — weighted fair queueing with virtual-time ticket
//!   accounting; the dispatch plan is a pure function of the workload.
//! * [`cache`] — the content-addressed result cache with LRU
//!   eviction.
//! * [`exec`] — pure job execution with a per-job metrics registry.
//! * [`workload`] — the synthetic course week (every submission
//!   arriving at virtual time 0) and the open-loop semester generator
//!   (seeded Poisson arrivals, deadline bursts, a bounded Zipf job
//!   universe).
//! * [`cluster`] — the one serving front end: N consistent-hash
//!   coordinator shards with private L1 caches behind a shared L2 tier
//!   and cross-shard single-flight. It serves the course week as
//!   one-shard days and whole semesters on a fleet, with
//!   shard-count-invariant semantics.
//! * [`telemetry`] — per-day, per-shard time series over a served
//!   semester (virtual-time windows, shard-invariant admission series
//!   vs per-shard service series) and the burn-rate/anomaly health
//!   policy that watches them.
//!
//! ## The service determinism contract
//!
//! Everything observable — dispatch order, per-arrival outcomes, cache
//! contents, counters, traces — is a pure function of the submitted
//! workload. Worker threads only execute pure jobs; every ordering
//! decision and cache mutation happens on the coordinator in
//! `(shard, dispatch)` order. `DayReport::digest()` is the oracle CI
//! gates on across 1/2/4/8-worker runs of the course week.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cluster;
pub mod exec;
pub mod result;
pub mod sched;
pub mod spec;
pub mod telemetry;
pub mod workload;

pub use cache::ResultCache;
pub use cluster::{
    Cluster, ClusterConfig, ClusterOutcome, ClusterSource, ClusterStats, DayReport, HashRing,
    RejectReason, SemesterReport,
};
pub use result::JobResult;
pub use sched::{Planned, Submission};
pub use spec::{CostSpec, JobSpec, MrWorkload, ReductionStyleSpec, ScheduleSpec, SpecError};
pub use telemetry::{
    collect_day, evaluate_health, health_artefact, health_policy, run_semester_observed,
};
pub use workload::{Perturbation, SemesterConfig};
