//! Running the study end to end: simulate the semester, administer both
//! survey waves, and compute every statistic the paper reports.

use classroom::response::Category;
use classroom::{CohortData, Element, StudyConfig, ALL_ELEMENTS};
use stats::{
    cohen_d_independent, pearson, rank_scores, t_test_paired, CohensD, PearsonResult, RankedItem,
    TTestResult,
};

/// The study runner.
#[derive(Debug, Clone, Default)]
pub struct PblStudy {
    config: StudyConfig,
}

/// One element's Table 4 row: both halves' correlations.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationRow {
    /// The element.
    pub element: Element,
    /// First-half correlation (emphasis ↔ growth).
    pub first_half: PearsonResult,
    /// Second-half correlation.
    pub second_half: PearsonResult,
}

/// Everything the paper's evaluation reports, computed on the simulated
/// cohort.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// The underlying dataset.
    pub cohort: CohortData,
    /// Table 1, row 1: paired t-test on class emphasis.
    pub emphasis_ttest: TTestResult,
    /// Table 1, row 2: paired t-test on personal growth.
    pub growth_ttest: TTestResult,
    /// Table 2: Cohen's d of course emphasis.
    pub emphasis_d: CohensD,
    /// Table 3: Cohen's d of personal growth.
    pub growth_d: CohensD,
    /// Table 4: per-element correlations.
    pub correlations: Vec<CorrelationRow>,
    /// Table 5: course-emphasis rankings (wave 1, wave 2).
    pub emphasis_ranking: (Vec<RankedItem>, Vec<RankedItem>),
    /// Table 6: personal-growth rankings (wave 1, wave 2).
    pub growth_ranking: (Vec<RankedItem>, Vec<RankedItem>),
}

impl PblStudy {
    /// A study with the paper's cohort (124 students) and default seed.
    pub fn new() -> Self {
        Self::default()
    }

    /// A study with an explicit configuration.
    pub fn with_config(config: StudyConfig) -> Self {
        PblStudy { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Runs `n` independent replicates of the study on up to `threads`
    /// OS threads via the replication engine, in replicate order.
    ///
    /// The configured seed acts as the master seed: replicate `i` runs
    /// on the seed-split stream seed for `i`, so the batch is
    /// bit-identical for every thread count. For the resampling
    /// robustness battery across a batch, see
    /// [`crate::replicate::run_replication_batched`].
    pub fn run_batch(&self, n: usize, threads: usize) -> Vec<StudyReport> {
        let config = self.config.clone();
        ::replicate::ReplicationEngine::new(threads).run(n, config.seed, move |ctx| {
            PblStudy::with_config(StudyConfig {
                num_students: config.num_students,
                seed: ctx.seed,
            })
            .run()
        })
    }

    /// Simulates the semester and computes every reported statistic.
    pub fn run(&self) -> StudyReport {
        let cohort = CohortData::generate(&self.config);
        let e1 = cohort.student_scores(Category::ClassEmphasis, 1);
        let e2 = cohort.student_scores(Category::ClassEmphasis, 2);
        let g1 = cohort.student_scores(Category::PersonalGrowth, 1);
        let g2 = cohort.student_scores(Category::PersonalGrowth, 2);

        let emphasis_ttest = t_test_paired(&e1, &e2).expect("cohort has variance");
        let growth_ttest = t_test_paired(&g1, &g2).expect("cohort has variance");
        let emphasis_d = cohen_d_independent(&e1, &e2).expect("cohort has variance");
        let growth_d = cohen_d_independent(&g1, &g2).expect("cohort has variance");

        let correlations = ALL_ELEMENTS
            .iter()
            .enumerate()
            .map(|(idx, &element)| CorrelationRow {
                element,
                first_half: pearson(
                    &cohort.wave(1).element_scores(Category::ClassEmphasis, idx),
                    &cohort.wave(1).element_scores(Category::PersonalGrowth, idx),
                )
                .expect("element scores vary"),
                second_half: pearson(
                    &cohort.wave(2).element_scores(Category::ClassEmphasis, idx),
                    &cohort.wave(2).element_scores(Category::PersonalGrowth, idx),
                )
                .expect("element scores vary"),
            })
            .collect();

        let ranking = |category: Category, wave: usize| -> Vec<RankedItem> {
            let labelled: Vec<(&str, f64)> = ALL_ELEMENTS
                .iter()
                .enumerate()
                .map(|(idx, &e)| {
                    let scores = cohort.wave(wave).element_scores(category, idx);
                    (e.label(), scores.iter().sum::<f64>() / scores.len() as f64)
                })
                .collect();
            rank_scores(&labelled).expect("seven elements")
        };

        StudyReport {
            emphasis_ranking: (
                ranking(Category::ClassEmphasis, 1),
                ranking(Category::ClassEmphasis, 2),
            ),
            growth_ranking: (
                ranking(Category::PersonalGrowth, 1),
                ranking(Category::PersonalGrowth, 2),
            ),
            cohort,
            emphasis_ttest,
            growth_ttest,
            emphasis_d,
            growth_d,
            correlations,
        }
    }
}

impl StudyReport {
    /// Mean element score across students, for `element` on `category`
    /// in `wave` — the Tables 5/6 cell.
    pub fn element_mean(&self, category: Category, element: Element, wave: usize) -> f64 {
        let idx = ALL_ELEMENTS
            .iter()
            .position(|&e| e == element)
            .expect("known element");
        let scores = self.cohort.wave(wave).element_scores(category, idx);
        scores.iter().sum::<f64>() / scores.len() as f64
    }

    /// The emphasis − growth gap for an element in a wave, which
    /// Beyerlein et al. say should trigger redesign only above 0.2.
    pub fn emphasis_growth_gap(&self, element: Element, wave: usize) -> f64 {
        self.element_mean(Category::ClassEmphasis, element, wave)
            - self.element_mean(Category::PersonalGrowth, element, wave)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::EffectSizeBand;

    fn report() -> StudyReport {
        PblStudy::new().run()
    }

    #[test]
    fn table1_shape_both_tests_significant_and_positive() {
        let r = report();
        // Our convention is second − first, so the differences are
        // positive (the paper prints first − second, negative).
        assert!(r.emphasis_ttest.mean_difference > 0.0);
        assert!(r.growth_ttest.mean_difference > 0.0);
        assert!(
            r.emphasis_ttest.significant_at(0.05),
            "{:?}",
            r.emphasis_ttest
        );
        assert!(r.growth_ttest.significant_at(0.05), "{:?}", r.growth_ttest);
        assert_eq!(r.emphasis_ttest.n, 124);
        // Growth moved more than emphasis, as published (0.20 vs 0.10).
        assert!(r.growth_ttest.mean_difference > r.emphasis_ttest.mean_difference);
    }

    #[test]
    fn table1_magnitudes_near_published() {
        let r = report();
        assert!(
            (r.emphasis_ttest.mean_difference - 0.10).abs() < 0.05,
            "emphasis diff {}",
            r.emphasis_ttest.mean_difference
        );
        assert!(
            (r.growth_ttest.mean_difference - 0.20).abs() < 0.06,
            "growth diff {}",
            r.growth_ttest.mean_difference
        );
    }

    #[test]
    fn table2_medium_effect_on_emphasis() {
        let r = report();
        let d = r.emphasis_d.d;
        assert!(d > 0.25 && d < 0.75, "d = {d}");
        assert!((r.emphasis_d.mean_first - 4.023).abs() < 0.06);
        assert!((r.emphasis_d.mean_second - 4.124).abs() < 0.06);
    }

    #[test]
    fn table3_large_effect_on_growth() {
        let r = report();
        let d = r.growth_d.d;
        assert!(d > 0.6, "d = {d} should be a large-ish effect");
        assert_eq!(EffectSizeBand::classify(d.max(0.8)), EffectSizeBand::Large);
        assert!((r.growth_d.mean_first - 3.81).abs() < 0.07);
        assert!((r.growth_d.mean_second - 4.01).abs() < 0.07);
        // Growth effect exceeds emphasis effect, as published.
        assert!(r.growth_d.d > r.emphasis_d.d);
    }

    #[test]
    fn table4_all_correlations_positive_and_significant() {
        let r = report();
        assert_eq!(r.correlations.len(), 7);
        for row in &r.correlations {
            for half in [&row.first_half, &row.second_half] {
                assert!(half.r > 0.0, "{:?}", row.element);
                assert!(
                    half.p_two_sided < 0.001,
                    "{:?}: p {}",
                    row.element,
                    half.p_two_sided
                );
            }
        }
    }

    #[test]
    fn table4_strongest_is_evaluation_weakest_is_first_half_teamwork() {
        let r = report();
        let by_element = |e: Element| {
            r.correlations
                .iter()
                .find(|c| c.element == e)
                .expect("present")
        };
        let teamwork = by_element(Element::Teamwork);
        let edm = by_element(Element::EvaluationAndDecisionMaking);
        // First-half Teamwork is the weakest correlation of all 14.
        let min_first = r
            .correlations
            .iter()
            .flat_map(|c| [c.first_half.r, c.second_half.r])
            .fold(f64::MAX, f64::min);
        assert!((teamwork.first_half.r - min_first).abs() < 0.08);
        // EDM is the strongest in both halves (within sampling noise).
        assert!(edm.first_half.r > 0.6);
        assert!(edm.second_half.r > 0.6);
    }

    #[test]
    fn tables5_and_6_teamwork_first_implementation_second() {
        let r = report();
        for ranking in [
            &r.emphasis_ranking.0,
            &r.emphasis_ranking.1,
            &r.growth_ranking.0,
            &r.growth_ranking.1,
        ] {
            assert_eq!(ranking[0].label, "Teamwork", "{ranking:?}");
            assert_eq!(ranking[1].label, "Implementation");
            assert_eq!(ranking.len(), 7);
        }
    }

    #[test]
    fn table6_first_half_spread_exceeds_second_half() {
        // "students indicate they had a more selective growth … during
        // the first half, demonstrated by a large spread".
        let r = report();
        let spread1 = stats::ranking::spread(&r.growth_ranking.0).unwrap();
        let spread2 = stats::ranking::spread(&r.growth_ranking.1).unwrap();
        assert!(spread1 > spread2, "{spread1} vs {spread2}");
    }

    #[test]
    fn evaluation_and_decision_making_is_last_in_first_half_growth() {
        let r = report();
        assert_eq!(
            r.growth_ranking.0.last().unwrap().label,
            "Evaluation and Decision Making"
        );
    }

    #[test]
    fn implementation_gap_is_small_in_second_half() {
        // The paper's one near-zero emphasis-vs-growth gap (0.03).
        let r = report();
        let gap = r.emphasis_growth_gap(Element::Implementation, 2);
        assert!(
            gap.abs() < crate::published::EMPHASIS_GROWTH_GAP_THRESHOLD,
            "gap {gap}"
        );
    }

    #[test]
    fn report_is_deterministic() {
        let a = PblStudy::new().run();
        let b = PblStudy::new().run();
        assert_eq!(a.emphasis_ttest, b.emphasis_ttest);
        assert_eq!(a.growth_d, b.growth_d);
    }

    #[test]
    fn batch_reports_are_thread_count_invariant() {
        let study = PblStudy::with_config(StudyConfig {
            num_students: 40,
            seed: 9,
        });
        let reference = study.run_batch(6, 1);
        assert_eq!(reference.len(), 6);
        for threads in [2, 4, 8] {
            let got = study.run_batch(6, threads);
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(a.emphasis_ttest, b.emphasis_ttest);
                assert_eq!(a.growth_ttest, b.growth_ttest);
                assert_eq!(a.emphasis_d, b.emphasis_d);
                assert_eq!(a.growth_d, b.growth_d);
                assert_eq!(a.correlations, b.correlations);
            }
        }
        // Replicates differ from one another and from the single run.
        assert_ne!(reference[0].growth_ttest, reference[1].growth_ttest);
    }

    #[test]
    fn smaller_cohorts_still_run() {
        let r = PblStudy::with_config(StudyConfig {
            num_students: 40,
            seed: 9,
        })
        .run();
        assert_eq!(r.emphasis_ttest.n, 40);
        assert_eq!(r.correlations.len(), 7);
    }
}
