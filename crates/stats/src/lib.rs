//! # pbl-stats — from-scratch statistics engine
//!
//! Implements every statistical procedure the paper's evaluation uses,
//! with no external numeric dependencies:
//!
//! * [`descriptive`] — one-pass summary statistics (Welford).
//! * [`special`] — ln-gamma, regularized incomplete beta, erf, and the
//!   Student-t / normal distribution functions built on them.
//! * [`ttest`] — paired, independent (pooled and Welch), and one-sample
//!   t-tests with exact two-sided p-values (Table 1).
//! * [`cohen`] — Cohen's d with the paper's pooled-SD formula and the
//!   small/medium/large interpretation bands (Tables 2–3).
//! * [`pearson`](mod@pearson) — Pearson correlation with significance and Guilford's
//!   strength bands (Table 4).
//! * [`composite`] — Beyerlein et al. composite scores (Tables 5–6).
//! * [`ranking`] — ranked score lists and rank utilities (Tables 5–6).
//! * [`wilcoxon`] — the signed-rank test, the nonparametric companion
//!   to the paired t-test.
//! * [`anova`] — one-way ANOVA with an F distribution, confirming the
//!   ranking tables' premise that element means genuinely differ.
//! * [`resample`] — bootstrap confidence intervals and permutation tests
//!   (robustness extension; the paper reports parametric tests only),
//!   each with a `*_par` form that splits its replicates into fixed
//!   shards, each drawing from its own seed-split RNG stream.
//! * [`batch`] — structure-of-arrays batch forms of the resampling
//!   kernels that advance many independent replicates in lockstep,
//!   bit-identical per lane to the `*_par` forms.
//! * [`pool`] — the task-order pool: a pure job per index on scoped
//!   worker threads, values back in index order.
//! * [`likert`] — 1–5 Likert-scale helpers for both survey scales.
//! * [`table`] — plain-text / Markdown table rendering for the report
//!   binary and EXPERIMENTS.md.
//!
//! All routines are deterministic; the resampling module uses an embedded
//! SplitMix64/xoshiro generator seeded explicitly by the caller, and
//! [`rng::StreamSeeder`] splits one master seed into collision-free
//! per-stream seeds for parallel replication work.

#![warn(missing_docs)]
// `deny`, not `forbid`: the one sanctioned exception is the batch
// module's CPU-feature dispatch, which calls a `#[target_feature]`
// instantiation of the identical safe kernel body behind run-time
// detection. Every other module remains unsafe-free.
#![deny(unsafe_code)]

pub mod anova;
pub mod batch;
pub mod cohen;
pub mod composite;
pub mod descriptive;
pub mod error;
pub mod likert;
pub mod pearson;
pub mod pool;
pub mod ranking;
pub mod resample;
pub mod rng;
pub mod special;
pub mod table;
pub mod ttest;
pub mod wilcoxon;

pub use anova::{anova_one_way, AnovaResult};
pub use batch::{
    bootstrap_mean_ci_batch, permutation_test_paired_batch, permutation_test_two_sample_batch,
    BatchScratch, CohortBatch, RngBank,
};
pub use cohen::{cohen_d_independent, cohen_d_paired, CohensD, EffectSizeBand};
pub use composite::{composite_score, CompositeScore};
pub use descriptive::Summary;
pub use error::StatsError;
pub use pearson::{pearson, GuilfordBand, PearsonResult};
pub use ranking::{rank_scores, RankedItem};
pub use resample::{
    bootstrap_ci, bootstrap_ci_par, permutation_test_paired, permutation_test_paired_par,
    permutation_test_two_sample, permutation_test_two_sample_par, BootstrapCi, PermutationTest,
    ResampleScratch,
};
pub use rng::{StreamSeeder, Xoshiro256};
pub use ttest::{t_test_independent, t_test_one_sample, t_test_paired, t_test_welch, TTestResult};
pub use wilcoxon::{wilcoxon_signed_rank, WilcoxonResult};

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, StatsError>;
