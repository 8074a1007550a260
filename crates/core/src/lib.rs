//! # pbl-core — the paper's primary contribution, end to end
//!
//! The paper contributes a semester-long Project-Based-Learning module
//! (five two-week assignments teaching shared-memory parallel
//! programming and soft skills on Raspberry Pis) together with its
//! assessment: a twice-administered Team Design Skills Growth survey
//! analysed with t-tests, Cohen's d, Pearson correlations, and
//! composite-score rankings. This crate assembles both halves:
//!
//! * [`module`] — the module design: timeline, assignments, teamwork
//!   technologies, video-presentation guide, grading policy.
//! * [`study`] — [`study::PblStudy`]: simulate a semester and run the
//!   full analysis, yielding a [`study::StudyReport`].
//! * [`experiments`] — one entry point per paper artefact (Tables 1–6,
//!   Figures 1–2, and the embedded Assignment 5 timing study), each
//!   returning structured results plus a rendered table.
//! * [`hypotheses`] — the three research hypotheses evaluated against a
//!   report.
//! * [`replicate`] — batch replication: N independent studies fanned
//!   out across OS threads on seed-split RNG streams, bit-identical for
//!   any thread count ("do the conclusions hold across 10k cohorts?").
//! * [`published`] — the paper's published numbers, for side-by-side
//!   comparison in EXPERIMENTS.md and the report binary.
//!
//! ```
//! use pbl_core::PblStudy;
//! use stats::EffectSizeBand;
//!
//! let report = PblStudy::new().run();
//! // The paper's headline: a large effect on personal growth.
//! assert_eq!(report.growth_d.band(), EffectSizeBand::Large);
//! assert!(report.growth_ttest.significant_at(0.05));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod hypotheses;
pub mod module;
pub mod published;
pub mod replicate;
pub mod study;

pub use replicate::{run_replication_batched, ReplicationConfig, ReplicationReport};
pub use study::{PblStudy, StudyReport};
