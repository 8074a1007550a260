//! # pbl-obs — the deterministic observability layer
//!
//! The simulated substrate (pi-sim SoC, parallel-rt, mapreduce, the
//! replication engine) produces numbers CI must be able to gate on, so
//! this crate provides the metrics surface every layer records into:
//!
//! * [`Counter`] — monotonic, saturating `u64` counters.
//! * [`Histogram`] — fixed-bucket histograms with explicit upper edges.
//! * [`Span`] — hierarchical time accumulators keyed by `/`-separated
//!   paths (parents are implied by the path, `pi_sim/core/0` nests
//!   under `pi_sim/core`).
//! * [`Registry`] — the insertion-ordered, thread-safe home of all
//!   three, exporting a [`MetricsSnapshot`] to pretty text and to a
//!   stable JSON schema.
//!
//! Every JSON document the workspace exports, the snapshot included,
//! is written by [`json`].
//!
//! ## The determinism contract
//!
//! Metrics are recorded against **virtual time where one exists**
//! (pi-sim cycles, parallel-rt's simulated clock) and wall time
//! elsewhere. Every metric carries a [`Domain`] tag at registration:
//!
//! * [`Domain::Virtual`] metrics are part of the determinism contract —
//!   two runs of the same seed must produce byte-identical values, and
//!   [`Registry::snapshot`] exports exactly these.
//! * [`Domain::Wall`] metrics (the live runtime's barrier waits) are
//!   host-dependent diagnostics; they appear only in
//!   [`Registry::snapshot_all`] and never in the deterministic export.
//!
//! There is no ambient clock anywhere in this crate: callers pass the
//! durations and values they measured, so the registry itself cannot
//! smuggle `Date::now`-style nondeterminism into a snapshot.
//!
//! Registration is panic-free: registering a name twice returns the
//! existing handle, and a kind collision (a counter re-registered as a
//! histogram) degrades to a detached handle rather than aborting a
//! simulation mid-run.
//!
//! ```
//! use obs::{Domain, Registry};
//!
//! let registry = Registry::new();
//! let hits = registry.counter("cache/l1_hits", Domain::Virtual);
//! let depth = registry.histogram("events/queue_depth", Domain::Virtual, &[1, 2, 4, 8]);
//! let core0 = registry.span("core/0/busy", Domain::Virtual);
//! hits.add(3);
//! depth.record(2);
//! core0.record(1_500);
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.metrics.len(), 3);
//! assert!(snapshot.to_json().contains("\"cache/l1_hits\""));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alert;
pub mod json;
mod metric;
mod registry;
mod snapshot;
pub mod timeseries;
pub mod trace;

pub use alert::{AlertPolicy, AnomalyRule, BurnRateSlo, Incident, IncidentEdge, Timeline};
pub use metric::{Counter, Histogram, Span};
pub use registry::{Domain, Registry};
pub use snapshot::{MetricData, MetricSample, MetricsSnapshot};
pub use timeseries::{SeriesKind, SeriesSet, TimeSeries, WindowPoint, CLUSTER_SHARD};
