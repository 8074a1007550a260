//! Batch replication of the whole study: "do the paper's conclusions
//! hold across N synthetic Fall-2018 cohorts?"
//!
//! Each replicate generates an independent cohort from a seed-split
//! stream, runs the Table-1 parametric tests, and then the resampling
//! robustness battery (paired permutation tests, bootstrap CI of the
//! mean difference, section-equivalence label shuffle). Replicates fan
//! out across OS threads via the `pbl-replicate` engine; the batch is
//! bit-identical for every thread count (see DESIGN.md, "replicate-level
//! determinism invariant"). [`run_replication_batched`] is the path
//! every caller runs; the scalar [`run_replication`] is the reference
//! it is tested against. Metrics and traces are read off the finished
//! [`ReplicationReport`].

use ::replicate::{ReplicateCtx, ReplicationEngine};
use classroom::cohort::CohortScoreModel;
use classroom::response::Category;
use classroom::{CohortData, StudyConfig};
use stats::batch::{
    bootstrap_mean_ci_batch, permutation_test_paired_batch, permutation_test_two_sample_batch,
    BatchScratch, CohortBatch,
};
use stats::resample::{
    bootstrap_ci_par, permutation_test_paired_par, permutation_test_two_sample_par, BootstrapCi,
};
use stats::{cohen_d_independent, t_test_paired, CohensD, TTestResult};

/// Configuration of one replication batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Number of independent study replicates.
    pub replicates: usize,
    /// Worker threads the engine may use (1 = serial).
    pub threads: usize,
    /// Students per replicate cohort.
    pub num_students: usize,
    /// Master seed; every replicate's stream is split from it.
    pub master_seed: u64,
    /// Permutations per paired permutation test.
    pub permutations: usize,
    /// Replicates per bootstrap CI.
    pub bootstrap_reps: usize,
    /// Permutations per section-equivalence two-sample test.
    pub section_permutations: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            replicates: 1_000,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            num_students: StudyConfig::default().num_students,
            master_seed: StudyConfig::default().seed,
            permutations: 4_000,
            bootstrap_reps: 1_000,
            section_permutations: 1_000,
        }
    }
}

/// Everything one replicate reports. `PartialEq` is the determinism
/// oracle: two batches are "the same" only if every field of every
/// replicate matches bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicateSummary {
    /// Batch position.
    pub index: usize,
    /// Seed-split cohort seed.
    pub seed: u64,
    /// Table 1, row 1 on this cohort.
    pub emphasis_ttest: TTestResult,
    /// Table 1, row 2 on this cohort.
    pub growth_ttest: TTestResult,
    /// Table 2 effect size.
    pub emphasis_d: CohensD,
    /// Table 3 effect size.
    pub growth_d: CohensD,
    /// Paired permutation p on class emphasis.
    pub emphasis_perm_p: f64,
    /// Paired permutation p on personal growth.
    pub growth_perm_p: f64,
    /// Bootstrap CI of the emphasis mean difference.
    pub emphasis_diff_ci: BootstrapCi,
    /// Bootstrap CI of the growth mean difference.
    pub growth_diff_ci: BootstrapCi,
    /// Section-equivalence two-sample permutation p (wave-2 emphasis).
    pub section_perm_p: f64,
}

/// The aggregated outcome of a replication batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationReport {
    /// The configuration that produced it.
    pub config: ReplicationConfig,
    /// Per-replicate summaries, in replicate order.
    pub summaries: Vec<ReplicateSummary>,
}

fn fraction(summaries: &[ReplicateSummary], pred: impl Fn(&ReplicateSummary) -> bool) -> f64 {
    summaries.iter().filter(|s| pred(s)).count() as f64 / summaries.len().max(1) as f64
}

impl ReplicationReport {
    /// Fraction of replicates whose growth t-test is significant at 5%.
    pub fn growth_significant_fraction(&self) -> f64 {
        fraction(&self.summaries, |s| s.growth_ttest.significant_at(0.05))
    }

    /// Fraction of replicates whose emphasis t-test is significant at 5%.
    pub fn emphasis_significant_fraction(&self) -> f64 {
        fraction(&self.summaries, |s| s.emphasis_ttest.significant_at(0.05))
    }

    /// Fraction where the growth effect exceeds the emphasis effect —
    /// the paper's Table 2-vs-3 ordering.
    pub fn growth_effect_larger_fraction(&self) -> f64 {
        fraction(&self.summaries, |s| s.growth_d.d > s.emphasis_d.d)
    }

    /// Fraction where the paired permutation test agrees with the
    /// growth t-test's 5% verdict — the normality robustness check.
    pub fn permutation_agreement_fraction(&self) -> f64 {
        fraction(&self.summaries, |s| {
            (s.growth_perm_p < 0.05) == s.growth_ttest.significant_at(0.05)
        })
    }

    /// Fraction of section-equivalence tests flagging at 5% (the model
    /// has no section effect, so this estimates the false-positive rate).
    pub fn section_flag_fraction(&self) -> f64 {
        fraction(&self.summaries, |s| s.section_perm_p < 0.05)
    }

    /// Mean of the growth Cohen's d across replicates.
    pub fn mean_growth_d(&self) -> f64 {
        self.summaries.iter().map(|s| s.growth_d.d).sum::<f64>()
            / self.summaries.len().max(1) as f64
    }

    /// (min, max) of the growth Cohen's d across replicates.
    pub fn growth_d_range(&self) -> (f64, f64) {
        self.summaries
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), s| {
                (lo.min(s.growth_d.d), hi.max(s.growth_d.d))
            })
    }

    /// Records the replication engine's virtual counters for this batch
    /// into `registry`: `replicate/chunks_dispatched` and
    /// `replicate/replicates_completed`. Both depend on the batch shape
    /// alone, so they are identical for every `config.threads`.
    pub fn record_metrics(&self, registry: &obs::Registry) {
        self.shape().record_metrics(registry);
    }

    /// The batch's chunk-lifecycle trace, in replicate-index virtual
    /// time (see [`::replicate::BatchShape::trace`]); byte-identical for
    /// every `config.threads`.
    pub fn trace(&self, tcfg: &obs::trace::TraceConfig) -> obs::trace::Trace {
        self.shape().trace(tcfg)
    }

    fn shape(&self) -> ::replicate::BatchShape {
        ReplicationEngine::new(self.config.threads).shape(self.summaries.len())
    }

    /// An order-sensitive 64-bit digest of every reported number — the
    /// currency of the CI determinism smoke check: two runs are
    /// bit-identical iff their digests match.
    pub fn digest(&self) -> u64 {
        let mut h = obs::trace::Fnv1a::new();
        let mut mix = |bits: u64| h.write(&bits.to_le_bytes());
        for s in &self.summaries {
            mix(s.index as u64);
            mix(s.seed);
            for v in [
                s.emphasis_ttest.t,
                s.emphasis_ttest.p_two_sided,
                s.growth_ttest.t,
                s.growth_ttest.p_two_sided,
                s.emphasis_d.d,
                s.growth_d.d,
                s.emphasis_perm_p,
                s.growth_perm_p,
                s.emphasis_diff_ci.lo,
                s.emphasis_diff_ci.hi,
                s.growth_diff_ci.lo,
                s.growth_diff_ci.hi,
                s.section_perm_p,
            ] {
                mix(v.to_bits());
            }
        }
        h.finish()
    }
}

/// Sub-stream indices for the per-replicate resampling batteries; the
/// cohort itself draws from the replicate's primary seed.
mod stream {
    pub const EMPHASIS_PERM: u64 = 1;
    pub const GROWTH_PERM: u64 = 2;
    pub const EMPHASIS_BOOT: u64 = 3;
    pub const GROWTH_BOOT: u64 = 4;
    pub const SECTION_PERM: u64 = 5;
}

fn mean_diff(d: &[f64]) -> f64 {
    d.iter().sum::<f64>() / d.len() as f64
}

fn summarize_replicate(cfg: &ReplicationConfig, ctx: &ReplicateCtx) -> ReplicateSummary {
    let cohort = CohortData::generate(&StudyConfig {
        num_students: cfg.num_students,
        seed: ctx.seed,
    });
    let e1 = cohort.student_scores(Category::ClassEmphasis, 1);
    let e2 = cohort.student_scores(Category::ClassEmphasis, 2);
    let g1 = cohort.student_scores(Category::PersonalGrowth, 1);
    let g2 = cohort.student_scores(Category::PersonalGrowth, 2);

    let perm = |first: &[f64], second: &[f64], stream| {
        permutation_test_paired_par(first, second, cfg.permutations, ctx.stream_seed(stream))
            .expect("cohort has variance")
            .p_two_sided
    };
    let boot = |first: &[f64], second: &[f64], stream| {
        let diffs: Vec<f64> = second.iter().zip(first).map(|(s, f)| s - f).collect();
        bootstrap_ci_par(
            &diffs,
            mean_diff,
            0.95,
            cfg.bootstrap_reps,
            ctx.stream_seed(stream),
        )
        .expect("cohort has variance")
    };
    let scores = &e2;
    let mut section: Vec<Vec<f64>> = [0usize, 1]
        .map(|sec| {
            cohort
                .students
                .iter()
                .filter(|s| s.section == sec)
                .map(|s| scores[s.id])
                .collect()
        })
        .into_iter()
        .collect();
    if section.iter().any(|s| s.len() < 2) {
        // Scaled cohorts truncate the roster and can leave section 1
        // empty; fall back to a half-split so the between-section check
        // stays defined (it is still a null comparison).
        let half = scores.len() / 2;
        section = vec![scores[..half].to_vec(), scores[half..].to_vec()];
    }
    let section_perm_p = permutation_test_two_sample_par(
        &section[0],
        &section[1],
        cfg.section_permutations,
        ctx.stream_seed(stream::SECTION_PERM),
    )
    .expect("both sections populated")
    .p_two_sided;

    ReplicateSummary {
        index: ctx.index,
        seed: ctx.seed,
        emphasis_ttest: t_test_paired(&e1, &e2).expect("cohort has variance"),
        growth_ttest: t_test_paired(&g1, &g2).expect("cohort has variance"),
        emphasis_d: cohen_d_independent(&e1, &e2).expect("cohort has variance"),
        growth_d: cohen_d_independent(&g1, &g2).expect("cohort has variance"),
        emphasis_perm_p: perm(&e1, &e2, stream::EMPHASIS_PERM),
        growth_perm_p: perm(&g1, &g2, stream::GROWTH_PERM),
        emphasis_diff_ci: boot(&e1, &e2, stream::EMPHASIS_BOOT),
        growth_diff_ci: boot(&g1, &g2, stream::GROWTH_BOOT),
        section_perm_p,
    }
}

/// Column indices of the per-chunk [`CohortBatch`]: the four
/// per-student score vectors of Tables 1–3 plus the two paired
/// difference columns the bootstrap consumes.
mod field {
    pub const E1: usize = 0;
    pub const E2: usize = 1;
    pub const G1: usize = 2;
    pub const G2: usize = 3;
    pub const EDIFF: usize = 4;
    pub const GDIFF: usize = 5;
    pub const COUNT: usize = 6;
}

/// Per-worker arena for the batch-major path: the structure-of-arrays
/// cohort columns, the resampling kernels' scratch, the section-pool
/// buffers, and the hoisted cohort score model (whose
/// clamp-compensation bisections are replicate-invariant), all reused
/// across every chunk a worker processes.
#[derive(Debug, Default)]
struct BatchArena {
    cols: CohortBatch,
    kernels: BatchScratch,
    sections: Vec<(Vec<f64>, Vec<f64>)>,
    model: CohortScoreModel,
}

/// One chunk of the batch-major path: lays the chunk's cohorts out as
/// [`CohortBatch`] columns, then advances every replicate's battery in
/// lockstep through the `stats::batch` kernels. Each lane consumes
/// exactly the streams the scalar [`summarize_replicate`] would, so
/// the summaries are bit-identical to the scalar path (the
/// `scalar_and_batched_paths_are_bit_identical` tests and the
/// replication bin's `--scalar-check` mode enforce this).
fn run_chunk_batched(
    cfg: &ReplicationConfig,
    arena: &mut BatchArena,
    ctxs: &[ReplicateCtx],
) -> Vec<ReplicateSummary> {
    let lanes = ctxs.len();
    let n = CohortData::effective_size(cfg.num_students);
    arena.cols.reset(field::COUNT, lanes, n);
    arena
        .sections
        .resize_with(lanes, || (Vec::new(), Vec::new()));

    let mut parametrics = Vec::with_capacity(lanes);
    for (lane, ctx) in ctxs.iter().enumerate() {
        // The hoisted score model writes the four per-student score
        // columns straight into the arena — bit-identical to generating
        // the full `CohortData` and extracting them, without the
        // roster, teams, per-element response matrices, or the
        // per-cohort clamp-compensation bisections.
        let study = StudyConfig {
            num_students: cfg.num_students,
            seed: ctx.seed,
        };
        let (e1, g1) = arena.cols.lane_pair_mut(field::E1, field::G1, lane);
        arena.model.wave_scores_into(&study, 1, e1, g1);
        let (e2, g2) = arena.cols.lane_pair_mut(field::E2, field::G2, lane);
        arena.model.wave_scores_into(&study, 2, e2, g2);
        arena
            .cols
            .lane_diff(field::EDIFF, field::E2, field::E1, lane);
        arena
            .cols
            .lane_diff(field::GDIFF, field::G2, field::G1, lane);

        let e1 = arena.cols.lane(field::E1, lane);
        let e2 = arena.cols.lane(field::E2, lane);
        let g1 = arena.cols.lane(field::G1, lane);
        let g2 = arena.cols.lane(field::G2, lane);
        parametrics.push((
            t_test_paired(e1, e2).expect("cohort has variance"),
            t_test_paired(g1, g2).expect("cohort has variance"),
            cohen_d_independent(e1, e2).expect("cohort has variance"),
            cohen_d_independent(g1, g2).expect("cohort has variance"),
        ));

        // Section pools — positional, because roster ids are assigned
        // section-major — with the scalar path's small-cohort fallback.
        let scores = arena.cols.lane(field::E2, lane);
        let (sec_a, sec_b) = &mut arena.sections[lane];
        let split = CohortScoreModel::section_split(scores.len());
        sec_a.clear();
        sec_a.extend_from_slice(&scores[..split]);
        sec_b.clear();
        sec_b.extend_from_slice(&scores[split..]);
        if sec_a.len() < 2 || sec_b.len() < 2 {
            let half = scores.len() / 2;
            sec_a.clear();
            sec_a.extend_from_slice(&scores[..half]);
            sec_b.clear();
            sec_b.extend_from_slice(&scores[half..]);
        }
    }

    // Per-lane sub-stream seeds per battery — the same
    // `ctx.stream_seed(stream)` values the scalar path feeds `*_par`.
    let seeds_for =
        |stream: u64| -> Vec<u64> { ctxs.iter().map(|c| c.stream_seed(stream)).collect() };
    let seeds = seeds_for(stream::EMPHASIS_PERM);
    let emphasis_perm = permutation_test_paired_batch(
        &arena.cols.lane_refs(field::E1),
        &arena.cols.lane_refs(field::E2),
        cfg.permutations,
        &seeds,
        &mut arena.kernels,
    )
    .expect("cohort has variance");
    let seeds = seeds_for(stream::GROWTH_PERM);
    let growth_perm = permutation_test_paired_batch(
        &arena.cols.lane_refs(field::G1),
        &arena.cols.lane_refs(field::G2),
        cfg.permutations,
        &seeds,
        &mut arena.kernels,
    )
    .expect("cohort has variance");
    let seeds = seeds_for(stream::EMPHASIS_BOOT);
    let emphasis_boot = bootstrap_mean_ci_batch(
        &arena.cols.lane_refs(field::EDIFF),
        0.95,
        cfg.bootstrap_reps,
        &seeds,
        &mut arena.kernels,
    )
    .expect("cohort has variance");
    let seeds = seeds_for(stream::GROWTH_BOOT);
    let growth_boot = bootstrap_mean_ci_batch(
        &arena.cols.lane_refs(field::GDIFF),
        0.95,
        cfg.bootstrap_reps,
        &seeds,
        &mut arena.kernels,
    )
    .expect("cohort has variance");
    let seeds = seeds_for(stream::SECTION_PERM);
    let sec_a_refs: Vec<&[f64]> = arena.sections.iter().map(|(a, _)| a.as_slice()).collect();
    let sec_b_refs: Vec<&[f64]> = arena.sections.iter().map(|(_, b)| b.as_slice()).collect();
    let section_perm = permutation_test_two_sample_batch(
        &sec_a_refs[..lanes],
        &sec_b_refs[..lanes],
        cfg.section_permutations,
        &seeds,
        &mut arena.kernels,
    )
    .expect("both sections populated");

    ctxs.iter()
        .enumerate()
        .map(|(lane, ctx)| {
            let (emphasis_ttest, growth_ttest, emphasis_d, growth_d) = parametrics[lane].clone();
            ReplicateSummary {
                index: ctx.index,
                seed: ctx.seed,
                emphasis_ttest,
                growth_ttest,
                emphasis_d,
                growth_d,
                emphasis_perm_p: emphasis_perm[lane].p_two_sided,
                growth_perm_p: growth_perm[lane].p_two_sided,
                emphasis_diff_ci: emphasis_boot[lane].clone(),
                growth_diff_ci: growth_boot[lane].clone(),
                section_perm_p: section_perm[lane].p_two_sided,
            }
        })
        .collect()
}

/// Runs the batch: `cfg.replicates` independent studies on up to
/// `cfg.threads` OS threads, bit-identical for every thread count.
///
/// This is the batch-major path every caller uses: each work-queue
/// chunk lays its cohorts out as a structure-of-arrays
/// [`CohortBatch`] and advances them in lockstep through the
/// `stats::batch` kernels, with one reused arena per worker. It
/// returns the same summaries and digest as the scalar
/// [`run_replication`], just faster.
pub fn run_replication_batched(cfg: &ReplicationConfig) -> ReplicationReport {
    let summaries = ReplicationEngine::new(cfg.threads).run_chunked(
        cfg.replicates,
        cfg.master_seed,
        BatchArena::default,
        |arena, ctxs| run_chunk_batched(cfg, arena, ctxs),
    );
    ReplicationReport {
        config: cfg.clone(),
        summaries,
    }
}

/// The scalar reference for [`run_replication_batched`]: one replicate
/// at a time through the per-replicate `stats::resample` kernels. Tests
/// and the replication bin's check modes compare the batched path
/// against it bit for bit.
pub fn run_replication(cfg: &ReplicationConfig) -> ReplicationReport {
    let summaries =
        ReplicationEngine::new(cfg.threads).run(cfg.replicates, cfg.master_seed, |ctx| {
            summarize_replicate(cfg, ctx)
        });
    ReplicationReport {
        config: cfg.clone(),
        summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(threads: usize) -> ReplicationConfig {
        ReplicationConfig {
            replicates: 8,
            threads,
            num_students: 40,
            master_seed: 77,
            permutations: 300,
            bootstrap_reps: 200,
            section_permutations: 200,
        }
    }

    #[test]
    fn batch_is_bit_identical_for_threads_1_2_4_8() {
        let reference = run_replication(&small_config(1));
        for threads in [2, 4, 8] {
            let got = run_replication(&small_config(threads));
            assert_eq!(reference.summaries, got.summaries, "threads = {threads}");
            assert_eq!(reference.digest(), got.digest());
        }
    }

    #[test]
    fn scalar_and_batched_paths_are_bit_identical() {
        // The tentpole invariant: batch-major execution changes *when*
        // work happens, never *what* is computed. Replicate counts are
        // chosen to exercise full chunks, 4-lane groups, and scalar
        // tail lanes (13 = 8 + 4 + 1 inside one chunk).
        for replicates in [1usize, 5, 8, 13, 16, 35] {
            let cfg = ReplicationConfig {
                replicates,
                ..small_config(1)
            };
            let scalar = run_replication(&cfg);
            for threads in [1, 2, 4, 8] {
                let batched = run_replication_batched(&ReplicationConfig {
                    threads,
                    ..cfg.clone()
                });
                assert_eq!(
                    scalar.summaries, batched.summaries,
                    "replicates={replicates} threads={threads}"
                );
                assert_eq!(scalar.digest(), batched.digest());
            }
        }
    }

    #[test]
    fn batched_path_is_bit_identical_at_the_full_cohort_size() {
        // Same statement at the paper's 124-student cohort, where the
        // sign-flip word count per permutation differs from the small
        // configs (124 = 64 + 60-bit masked block).
        let cfg = ReplicationConfig {
            replicates: 6,
            threads: 2,
            permutations: 200,
            bootstrap_reps: 150,
            section_permutations: 100,
            ..Default::default()
        };
        let scalar = run_replication(&cfg);
        let batched = run_replication_batched(&cfg);
        assert_eq!(scalar.summaries, batched.summaries);
    }

    #[test]
    fn replicates_are_genuinely_independent() {
        let report = run_replication(&small_config(2));
        assert_eq!(report.summaries.len(), 8);
        let seeds: std::collections::HashSet<u64> =
            report.summaries.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 8, "every replicate has its own seed");
        assert_ne!(
            report.summaries[0].growth_ttest, report.summaries[1].growth_ttest,
            "different cohorts give different statistics"
        );
    }

    #[test]
    fn digest_is_sensitive_to_the_master_seed() {
        let a = run_replication(&small_config(2));
        let mut other = small_config(2);
        other.master_seed = 78;
        let b = run_replication(&other);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn recorded_metrics_are_thread_invariant() {
        let mut json = Vec::new();
        for threads in [1, 4] {
            let registry = obs::Registry::new();
            run_replication_batched(&small_config(threads)).record_metrics(&registry);
            json.push(registry.snapshot().to_json());
        }
        assert_eq!(
            json[0], json[1],
            "virtual metrics are thread-count invariant"
        );
        assert!(json[0].contains("replicate/replicates_completed"));
    }

    #[test]
    fn paper_conclusions_recur_across_replicates() {
        // The generative model is calibrated to the paper's effect
        // sizes, so at full cohort size the headline conclusions should
        // recur in (almost) every replicate draw.
        let report = run_replication(&ReplicationConfig {
            replicates: 12,
            threads: 2,
            permutations: 500,
            bootstrap_reps: 300,
            section_permutations: 200,
            ..Default::default()
        });
        assert!(report.growth_significant_fraction() > 0.9);
        assert!(report.growth_effect_larger_fraction() > 0.9);
        assert!(report.permutation_agreement_fraction() > 0.9);
        assert!(report.section_flag_fraction() < 0.35);
        let (lo, hi) = report.growth_d_range();
        assert!(lo <= report.mean_growth_d() && report.mean_growth_d() <= hi);
        assert!(report.mean_growth_d() > 0.5, "{}", report.mean_growth_d());
    }
}
