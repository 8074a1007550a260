//! One entry point per paper artefact. Each returns the structured
//! result plus a rendered [`stats::table::Table`], and the report
//! binary prints paper-vs-measured side by side using [`crate::published`].

use classroom::response::Category;
use classroom::survey::{render_block, Scale};
use classroom::{Element, ALL_ELEMENTS};
use stats::table::{fnum, Table};

use crate::published;
use crate::study::StudyReport;

/// Every artefact name the report surface can render, in report order.
/// This catalog is the single source of truth: the `report` binary, the
/// serve layer's `Report` jobs and the bench crate all consult it, so a
/// new artefact added here is immediately listable and servable.
pub const ARTEFACTS: [&str; 24] = [
    "fig1",
    "fig2",
    "descriptive",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "gaps",
    "assignment5",
    "race",
    "races",
    "spring2019",
    "robustness",
    "sections",
    "assessment",
    "anova",
    "replication",
    "metrics",
    "trace",
    "semester",
    "health",
    "os",
];

/// True if `name` (case-insensitive) is a single renderable artefact.
/// `all` is a composition, not a member — callers that accept it (the
/// report binary) special-case it themselves.
pub fn is_artefact(name: &str) -> bool {
    let lower = name.to_lowercase();
    ARTEFACTS.contains(&lower.as_str())
}

/// Renders one artefact from the catalog to its textual form, running
/// the simulated study where the artefact needs it. `threads` bounds
/// the worker threads of the replication / metrics / trace artefacts;
/// their output is thread-count invariant, so the rendering is a pure
/// function of the artefact name. Returns `None` for names outside
/// [`ARTEFACTS`].
pub fn render_artefact(name: &str, threads: usize) -> Option<String> {
    let lower = name.to_lowercase();
    let study = || crate::study::PblStudy::new().run();
    let text = match lower.as_str() {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "descriptive" => descriptive(&study()).render_ascii(),
        "table1" => table1(&study()).render_ascii(),
        "table2" => table2(&study()).render_ascii(),
        "table3" => table3(&study()).render_ascii(),
        "table4" => table4(&study()).render_ascii(),
        "table5" => table5(&study()).render_ascii(),
        "table6" => table6(&study()).render_ascii(),
        "gaps" => gap_analysis(&study()).render_ascii(),
        "assignment5" => assignment5().render_ascii(),
        "race" => race_demo().render_ascii(),
        "races" => races_table().render_ascii(),
        "spring2019" => spring2019().1.render_ascii(),
        "robustness" => robustness(&study()).render_ascii(),
        "sections" => section_equivalence(&study()).render_ascii(),
        "assessment" => assessment_table(&study()).render_ascii(),
        "anova" => element_anova(&study()).render_ascii(),
        "replication" => replication(200, threads).render_ascii(),
        "metrics" => {
            let snapshot = metrics_snapshot(threads);
            format!(
                "{}digest: {:016x}\n",
                snapshot.render_text(),
                snapshot.digest()
            )
        }
        "trace" => obs::trace::analyze::analyze(&demo_trace(threads)).render_text(),
        "semester" => semester_pointer(),
        "health" => health_pointer(),
        "os" => os::study::os_artefact(),
        _ => return None,
    };
    Some(text)
}

/// The `semester` catalogue entry. The summary it names — a semester
/// of open-loop traffic served by the sharded cluster — is produced by
/// the serve layer, which depends on this crate; the catalogue entry
/// therefore points at that renderer (the `report` binary routes
/// `report -- semester` to it) instead of creating a dependency cycle.
fn semester_pointer() -> String {
    concat!(
        "semester: a simulated semester of open-loop course traffic\n",
        "served by the consistent-hash sharded cluster (pbl-serve).\n",
        "Summary fields: arrivals, admissions, per-shard hit rates,\n",
        "sojourn percentiles, semester digest.\n",
        "Render it with: report -- semester (or serve::cluster::semester_artefact).\n",
    )
    .to_string()
}

/// The `health` catalogue entry. Like `semester`, the renderer lives
/// in the serve layer (which depends on this crate), so the catalogue
/// entry is a pointer the `report` binary routes around.
fn health_pointer() -> String {
    concat!(
        "health: the semester telemetry and alerting report — per-day\n",
        "time series from the sharded cluster, SLO burn-rate and\n",
        "anomaly evaluation, and the incident timeline for the clean\n",
        "and the storm-perturbed smoke semester (the clean one is quiet).\n",
        "Render it with: report -- health (or serve::telemetry::health_artefact).\n",
    )
    .to_string()
}

/// Table 1: the two paired t-tests. Rendered with the paper's sign
/// convention (first − second).
pub fn table1(report: &StudyReport) -> Table {
    let mut t = Table::new(vec![
        "",
        "Mean Difference",
        "t",
        "N",
        "p-value",
        "paper (diff, t, p)",
    ])
    .with_title("Table 1. T-test: Class Emphasis and Personal Growth");
    let p1 = &published::TABLE1_EMPHASIS;
    let p2 = &published::TABLE1_GROWTH;
    t.row(vec![
        "Class Emphasis".into(),
        fnum(-report.emphasis_ttest.mean_difference, 2),
        fnum(-report.emphasis_ttest.t, 2),
        report.emphasis_ttest.n.to_string(),
        format!("{:.3}", report.emphasis_ttest.p_two_sided),
        format!("{:.2}, {:.2}, {:.3}", p1.mean_difference, p1.t, p1.p),
    ]);
    t.row(vec![
        "Personal Growth".into(),
        fnum(-report.growth_ttest.mean_difference, 2),
        fnum(-report.growth_ttest.t, 2),
        report.growth_ttest.n.to_string(),
        format!("{:.3}", report.growth_ttest.p_two_sided),
        format!("{:.2}, {:.2}, {:.3}", p2.mean_difference, p2.t, p2.p),
    ]);
    t
}

/// Table 2: Cohen's d of course emphasis.
pub fn table2(report: &StudyReport) -> Table {
    cohens_table(
        "Table 2. Cohen's d of Course Emphasis",
        &report.emphasis_d,
        &published::TABLE2,
    )
}

/// Table 3: Cohen's d of personal growth.
pub fn table3(report: &StudyReport) -> Table {
    cohens_table(
        "Table 3. Cohen's d (Effect Size) of Personal Growth",
        &report.growth_d,
        &published::TABLE3,
    )
}

fn cohens_table(title: &str, d: &stats::CohensD, paper: &published::PublishedCohensD) -> Table {
    let mut t =
        Table::new(vec!["", "First Half Survey", "Second Half Survey", "paper"]).with_title(title);
    t.row(vec![
        "Mean (M)".into(),
        fnum(d.mean_first, 4),
        fnum(d.mean_second, 4),
        format!("{:.4} / {:.4}", paper.mean1, paper.mean2),
    ]);
    t.row(vec![
        "Standard deviation (s)".into(),
        fnum(d.sd_first, 4),
        fnum(d.sd_second, 4),
        format!("{:.4} / {:.4}", paper.sd1, paper.sd2),
    ]);
    t.row(vec![
        "Sample size (n)".into(),
        d.n.to_string(),
        d.n.to_string(),
        "124".into(),
    ]);
    t.row(vec![
        "Cohen's d".into(),
        format!("{} ({})", fnum(d.d, 2), d.band().label()),
        String::new(),
        format!("{:.2} ({})", paper.d, paper.band),
    ]);
    t
}

/// Table 4: Pearson correlations per element per half.
pub fn table4(report: &StudyReport) -> Table {
    let mut t = Table::new(vec![
        "Element",
        "r (1st half)",
        "p",
        "r (2nd half)",
        "p",
        "paper r (1st/2nd)",
    ])
    .with_title("Table 4. Pearson Correlation Between Class Emphasis and Personal Growth");
    for row in &report.correlations {
        t.row(vec![
            row.element.label().to_string(),
            fnum(row.first_half.r, 2),
            row.first_half.p_display(),
            fnum(row.second_half.r, 2),
            row.second_half.p_display(),
            format!(
                "{:.2} / {:.2}",
                published::table4_r(row.element, 1),
                published::table4_r(row.element, 2)
            ),
        ]);
    }
    t
}

/// Table 5: ranking of perceived course emphasis.
pub fn table5(report: &StudyReport) -> Table {
    ranking_table(
        "Table 5. Ranking of Student Perception of the Course Emphasis",
        &report.emphasis_ranking.0,
        &report.emphasis_ranking.1,
    )
}

/// Table 6: ranking of perceived personal growth.
pub fn table6(report: &StudyReport) -> Table {
    ranking_table(
        "Table 6. Ranking of Student Perception of Personal Growth",
        &report.growth_ranking.0,
        &report.growth_ranking.1,
    )
}

fn ranking_table(title: &str, first: &[stats::RankedItem], second: &[stats::RankedItem]) -> Table {
    let mut t = Table::new(vec![
        "Ranking",
        "First Half (average)",
        "Second Half (average)",
    ])
    .with_title(title);
    for (a, b) in first.iter().zip(second) {
        t.row(vec![
            a.rank.to_string(),
            format!("{}: {}", a.label, fnum(a.score, 2)),
            format!("{}: {}", b.label, fnum(b.score, 2)),
        ]);
    }
    t
}

/// Figure 1: the semester timeline (text form).
pub fn fig1() -> String {
    classroom::timeline::render_timeline()
}

/// Figure 2: the Teamwork survey block on both scales.
pub fn fig2() -> String {
    format!(
        "{}\n{}",
        render_block(Element::Teamwork, Scale::ClassEmphasis),
        render_block(Element::Teamwork, Scale::PersonalGrowth)
    )
}

/// The Assignment 5 timing study (drug design on the virtual Pi).
pub fn assignment5() -> Table {
    let rows = drugsim::assignment5_report(&drugsim::DrugDesignConfig::default());
    let mut t = Table::new(vec![
        "Approach",
        "Threads",
        "Max ligand len",
        "Virtual cycles",
        "Speedup",
        "LoC",
    ])
    .with_title("Assignment 5: drug design — sequential vs OpenMP vs C++11 threads");
    for r in rows {
        t.row(vec![
            r.approach.name().to_string(),
            r.threads.to_string(),
            r.max_ligand_len.to_string(),
            r.sim_cycles.to_string(),
            fnum(r.speedup_vs_sequential, 2),
            r.lines_of_code.to_string(),
        ]);
    }
    t
}

/// The Assignment 2 data-race demonstration table.
pub fn race_demo() -> Table {
    let outcomes = patternlets::private_shared::race_comparison(4, 50_000);
    let mut t = Table::new(vec![
        "Strategy",
        "Expected",
        "Observed",
        "Lost updates",
        "Correct",
    ])
    .with_title("Assignment 2: shared-counter data race and its fixes");
    for o in outcomes {
        t.row(vec![
            format!("{:?}", o.strategy),
            o.expected.to_string(),
            o.observed.to_string(),
            o.lost_updates().to_string(),
            o.is_correct().to_string(),
        ]);
    }
    t
}

/// The `races` artefact: the schedule-space explorer's verdict on the
/// Assignment-2 patternlet family. Complements [`race_demo`] — where
/// the demo *samples* whatever interleavings the OS happens to produce,
/// the explorer exhausts the bounded schedule space of a modeled
/// patternlet: it finds the race in the unfixed program, shrinks the
/// counterexample to a minimal schedule, and certifies every fix
/// race-free over the entire explored space. Fully deterministic —
/// same table on every host and every run.
pub fn races_table() -> Table {
    use parallel_rt::explore::search::{systematic, Budget};
    use parallel_rt::explore::shrink::shrink_counterexample;
    use parallel_rt::race::{patternlet_program, FixStrategy};

    let mut t = Table::new(vec![
        "Strategy",
        "Schedules",
        "Space exhausted",
        "Racy runs",
        "Distinct races",
        "Minimal schedule",
        "Verdict",
    ])
    .with_title(
        "Schedule-space exploration of the shared-counter patternlet (2 lanes x 2 increments)",
    );
    for strategy in [
        FixStrategy::None,
        FixStrategy::Critical,
        FixStrategy::Atomic,
        FixStrategy::Reduction,
    ] {
        let program = patternlet_program(strategy, 2, 2);
        let report = systematic(&program, Budget::schedules(200_000));
        let minimal = report.counterexample.as_ref().map(|cex| {
            let (shrunk, _) = shrink_counterexample(&program, cex);
            format!("{} choices", shrunk.choices.len())
        });
        t.row(vec![
            format!("{strategy:?}"),
            report.schedules.to_string(),
            report.space_exhausted.to_string(),
            report.race_runs.to_string(),
            report.distinct_races.len().to_string(),
            minimal.unwrap_or_else(|| "-".into()),
            if report.certified() {
                "race-free over explored space".into()
            } else {
                "RACE".to_string()
            },
        ]);
    }
    t
}

/// The per-element emphasis-vs-growth gap table (Discussion §IV):
/// only gaps above 0.2 call for course redesign.
pub fn gap_analysis(report: &StudyReport) -> Table {
    let mut t = Table::new(vec![
        "Element",
        "Gap (1st half)",
        "Gap (2nd half)",
        "Redesign?",
    ])
    .with_title("Emphasis minus growth per element (redesign threshold 0.2)");
    for &e in &ALL_ELEMENTS {
        let g1 = report.emphasis_growth_gap(e, 1);
        let g2 = report.emphasis_growth_gap(e, 2);
        t.row(vec![
            e.label().to_string(),
            fnum(g1, 2),
            fnum(g2, 2),
            if g2 > published::EMPHASIS_GROWTH_GAP_THRESHOLD {
                "consider".into()
            } else {
                "no".into()
            },
        ]);
    }
    t
}

/// Descriptive statistics (§III.A): cohort size and gender split.
pub fn descriptive(report: &StudyReport) -> Table {
    let (male, female) = classroom::roster::gender_counts(&report.cohort.students);
    let n = report.cohort.n() as f64;
    let mut t =
        Table::new(vec!["", "Count", "Percent"]).with_title("Descriptive statistics of the cohort");
    t.row(vec![
        "Male".into(),
        male.to_string(),
        format!("{:.2}%", male as f64 / n * 100.0),
    ]);
    t.row(vec![
        "Female".into(),
        female.to_string(),
        format!("{:.2}%", female as f64 / n * 100.0),
    ]);
    t.row(vec![
        "Total".into(),
        report.cohort.n().to_string(),
        "100%".into(),
    ]);
    t
}

/// Everything, rendered in paper order — what `report -- all` prints.
pub fn full_report(report: &StudyReport) -> String {
    let mut out = String::new();
    out.push_str("Figure 1 — semester timeline\n");
    out.push_str(&fig1());
    out.push('\n');
    out.push_str("Figure 2 — survey instrument (Teamwork block)\n");
    out.push_str(&fig2());
    out.push('\n');
    out.push_str(&descriptive(report).render_ascii());
    out.push('\n');
    for table in [
        table1(report),
        table2(report),
        table3(report),
        table4(report),
        table5(report),
        table6(report),
        gap_analysis(report),
        element_anova(report),
        robustness(report),
        section_equivalence(report),
        assessment_table(report),
        assignment5(),
        race_demo(),
        spring2019().1,
        replication(
            40,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ),
    ] {
        out.push_str(&table.render_ascii());
        out.push('\n');
    }
    out
}

/// Convenience accessor mirroring [`StudyReport::element_mean`] for the
/// emphasis/growth matrix the gap analysis uses.
pub fn element_mean(
    report: &StudyReport,
    category: Category,
    element: Element,
    wave: usize,
) -> f64 {
    report.element_mean(category, element, wave)
}

/// Robustness companion to Table 1: the same paired comparisons under
/// the nonparametric Wilcoxon signed-rank test and a permutation test,
/// plus a bootstrap CI on the mean difference — checking that the
/// paper's conclusions do not hinge on normality.
pub fn robustness(report: &StudyReport) -> Table {
    let cohort = &report.cohort;
    let mut t = Table::new(vec![
        "Variable",
        "t-test p",
        "Wilcoxon p",
        "Permutation p",
        "Bootstrap 95% CI of diff",
    ])
    .with_title("Robustness: Table 1 under nonparametric tests");
    for (label, category) in [
        ("Class Emphasis", Category::ClassEmphasis),
        ("Personal Growth", Category::PersonalGrowth),
    ] {
        let first = cohort.student_scores(category, 1);
        let second = cohort.student_scores(category, 2);
        let ttest = stats::t_test_paired(&first, &second).expect("variance");
        let wilcoxon = stats::wilcoxon_signed_rank(&first, &second).expect("variance");
        let perm =
            stats::resample::permutation_test_paired(&first, &second, 2_000, 42).expect("variance");
        let diffs: Vec<f64> = second.iter().zip(&first).map(|(s, f)| s - f).collect();
        let ci = stats::resample::bootstrap_ci(
            &diffs,
            |d| d.iter().sum::<f64>() / d.len() as f64,
            0.95,
            2_000,
            42,
        )
        .expect("variance");
        t.row(vec![
            label.into(),
            format!("{:.4}", ttest.p_two_sided),
            format!("{:.4}", wilcoxon.p_two_sided),
            format!("{:.4}", perm.p_two_sided),
            format!("[{:.3}, {:.3}]", ci.lo, ci.hi),
        ]);
    }
    t
}

/// Replication robustness (ROADMAP north-star): does the paper's
/// conclusion hold across many independent synthetic Fall-2018 cohorts?
/// Fans `replicates` full studies (cohort + Table-1 tests + resampling
/// battery) across `threads` OS threads via the deterministic
/// replication engine and tabulates how often each headline conclusion
/// recurs. The batch is bit-identical for every `threads` value.
pub fn replication(replicates: usize, threads: usize) -> Table {
    let report = crate::replicate::run_replication_batched(&crate::replicate::ReplicationConfig {
        replicates,
        threads,
        permutations: 800,
        bootstrap_reps: 600,
        section_permutations: 400,
        ..Default::default()
    });
    let (d_lo, d_hi) = report.growth_d_range();
    let mut t = Table::new(vec!["Conclusion", "Fraction of replicates", "Expectation"]).with_title(
        format!("Replication: {replicates} independent cohorts (engine, {threads} thread(s))"),
    );
    t.row(vec![
        "Growth t-test significant (p < 0.05)".into(),
        fnum(report.growth_significant_fraction(), 3),
        "~1.0 (paper reports p = 0.000)".into(),
    ]);
    t.row(vec![
        "Emphasis t-test significant (p < 0.05)".into(),
        fnum(report.emphasis_significant_fraction(), 3),
        "high (paper reports p = 0.010)".into(),
    ]);
    t.row(vec![
        "Growth effect larger than emphasis (d)".into(),
        fnum(report.growth_effect_larger_fraction(), 3),
        "~1.0 (0.86 vs 0.50 published)".into(),
    ]);
    t.row(vec![
        "Permutation test agrees with t-test".into(),
        fnum(report.permutation_agreement_fraction(), 3),
        "~1.0 (conclusions don't hinge on normality)".into(),
    ]);
    t.row(vec![
        "Section equivalence flags (p < 0.05)".into(),
        fnum(report.section_flag_fraction(), 3),
        "~0.05 (no section effect in the model)".into(),
    ]);
    t.row(vec![
        "Growth d across replicates".into(),
        format!(
            "{} [{}, {}]",
            fnum(report.mean_growth_d(), 2),
            fnum(d_lo, 2),
            fnum(d_hi, 2)
        ),
        "0.86 published".into(),
    ]);
    t
}

/// The `metrics` artefact: exercises every instrumented layer with a
/// small fixed workload — a guided-schedule triangular loop on the
/// simulated quad-core Pi (parallel-rt + pi-sim), a word-count
/// MapReduce job, and a replication mini-batch — and returns the
/// deterministic metrics snapshot. Only virtual-domain metrics are
/// exported, so the JSON is byte-identical across runs and across
/// `threads` (the golden-snapshot CI test relies on this).
pub fn metrics_snapshot(threads: usize) -> obs::MetricsSnapshot {
    let registry = obs::Registry::new();

    // Layers 1+2: chunk-size, cache, bus-contention, core-busy and
    // event-queue metrics from the simulated loop.
    let _ = parallel_rt::sim::simulate_parallel_loop_with_metrics(
        2_000,
        &parallel_rt::sim::CostModel::Linear { base: 40, slope: 2 },
        parallel_rt::Schedule::Guided(8),
        4,
        &parallel_rt::sim::SimOptions::default(),
        &registry,
    );

    // Layer 3: shuffle and partition-skew metrics from word count.
    word_count_demo().record_metrics(&registry);

    // Layer 4: replication-engine queue metrics from a mini-batch.
    replication_demo(threads).record_metrics(&registry);

    registry.snapshot()
}

/// The canonical four-layer demo trace: the same workloads as
/// [`metrics_snapshot`], but captured as a virtual-time event stream
/// and merged into one Chrome-trace document (one Perfetto process per
/// layer). Every event is timestamped in the owning layer's virtual
/// clock — simulated cycles for the machine layers, pairs processed
/// for MapReduce, replicate index for the replication engine — so the
/// export is byte-identical across hosts, runs, and thread counts.
pub fn demo_trace(threads: usize) -> obs::trace::Trace {
    let tcfg = obs::trace::TraceConfig::default();

    // Layers 1+2: the guided loop on the simulated machine (per-core
    // schedule slices, cache counters, bus-contention instants, wait
    // spans) plus the runtime's chunk-dispatch lane.
    let (_, loop_trace) = parallel_rt::sim::simulate_parallel_loop_traced(
        2_000,
        &parallel_rt::sim::CostModel::Linear { base: 40, slope: 2 },
        parallel_rt::Schedule::Guided(8),
        4,
        &parallel_rt::sim::SimOptions::default(),
        &tcfg,
    );

    // A tree reduction for its barrier-wait spans between combine
    // levels — the sync cost the ablation in DESIGN.md studies.
    let (_, reduce_trace) = parallel_rt::sim::simulate_reduction_traced(
        1_024,
        25,
        4,
        parallel_rt::sim::ReductionStyle::Tree,
        &parallel_rt::sim::SimOptions::default(),
        &tcfg,
    );

    // Layer 3: word-count phase spans in pairs-processed virtual time.
    let job_trace = word_count_demo().trace(&tcfg);

    // Layer 4: replication chunk lifecycles in replicate-index virtual
    // time. `threads` only changes which OS workers run the chunks,
    // never the batch shape, so the merged trace is thread invariant.
    let rep_trace = replication_demo(threads).trace(&tcfg);

    obs::trace::Trace::merge(vec![
        ("sim-loop", loop_trace),
        ("tree-reduction", reduce_trace),
        ("word-count", job_trace),
        ("replication", rep_trace),
    ])
}

/// The word-count job [`metrics_snapshot`] and [`demo_trace`] observe.
fn word_count_demo() -> mapreduce::JobStats {
    let docs: Vec<String> = (0..24)
        .map(|i| format!("pbl module assignment {} teaches parallel thinking", i % 5))
        .collect();
    let config = mapreduce::JobConfig {
        map_workers: 2,
        use_combiner: true,
        ..Default::default()
    };
    mapreduce::run_job(&mapreduce::examples::WordCount, docs, &config).stats
}

/// The replication mini-batch [`metrics_snapshot`] and [`demo_trace`]
/// observe.
fn replication_demo(threads: usize) -> crate::replicate::ReplicationReport {
    crate::replicate::run_replication_batched(&crate::replicate::ReplicationConfig {
        replicates: 6,
        threads,
        num_students: 40,
        master_seed: 77,
        permutations: 200,
        bootstrap_reps: 150,
        section_permutations: 150,
    })
}

/// Section equivalence (§II: both sections "taught by the same
/// instructor and with the same instructional strategy"): compares the
/// two sections' wave-2 scores; no significant difference is expected,
/// which justifies pooling them as the paper does.
pub fn section_equivalence(report: &StudyReport) -> Table {
    let cohort = &report.cohort;
    let mut t = Table::new(vec![
        "Variable",
        "Section 0 mean",
        "Section 1 mean",
        "Welch p",
        "p < 0.05?",
    ])
    .with_title(
        "Section equivalence (no section effect in the model; a single cell \
         may still flag at the 5% level by chance)",
    );
    for (label, category) in [
        ("Class Emphasis (wave 2)", Category::ClassEmphasis),
        ("Personal Growth (wave 2)", Category::PersonalGrowth),
    ] {
        let scores = cohort.student_scores(category, 2);
        let s0: Vec<f64> = cohort
            .students
            .iter()
            .filter(|s| s.section == 0)
            .map(|s| scores[s.id])
            .collect();
        let s1: Vec<f64> = cohort
            .students
            .iter()
            .filter(|s| s.section == 1)
            .map(|s| scores[s.id])
            .collect();
        let test = stats::t_test_welch(&s0, &s1).expect("variance");
        t.row(vec![
            label.into(),
            fnum(s0.iter().sum::<f64>() / s0.len() as f64, 3),
            fnum(s1.iter().sum::<f64>() / s1.len() as f64, 3),
            format!("{:.3}", test.p_two_sided),
            if test.significant_at(0.05) {
                "yes (sampling)".to_string()
            } else {
                "no".to_string()
            },
        ]);
    }
    t
}

/// Individual assessment (§II): quiz trajectory, exams, and the
/// coherence between reported growth and final-exam performance.
pub fn assessment_table(report: &StudyReport) -> Table {
    let records = classroom::assessment::generate_assessments(&report.cohort, 7);
    let trajectory = classroom::assessment::quiz_trajectory(&records);
    let midterm: f64 = records.iter().map(|r| r.midterm).sum::<f64>() / records.len() as f64;
    let final_exam: f64 = records.iter().map(|r| r.final_exam).sum::<f64>() / records.len() as f64;
    let growth2 = report.cohort.student_scores(Category::PersonalGrowth, 2);
    let finals: Vec<f64> = records.iter().map(|r| r.final_exam).collect();
    let r = stats::pearson(&growth2, &finals).expect("variance");
    let mut t = Table::new(vec!["Measure", "Class mean"])
        .with_title("Individual assessment: five quizzes, midterm, final");
    for (k, q) in trajectory.iter().enumerate() {
        t.row(vec![
            format!("Quiz {} (after A{})", k + 1, k + 1),
            fnum(*q, 1),
        ]);
    }
    t.row(vec!["Midterm (week 8)".into(), fnum(midterm, 1)]);
    t.row(vec!["Final (week 15)".into(), fnum(final_exam, 1)]);
    t.row(vec![
        "r(final exam, reported growth)".into(),
        format!("{:.2} ({})", r.r, r.p_display()),
    ]);
    t
}

/// Do the seven elements genuinely differ in mean growth? A one-way
/// ANOVA across elements per wave (treating element scores as samples;
/// a descriptive check of the ranking tables' premise, not a
/// repeated-measures model).
pub fn element_anova(report: &StudyReport) -> Table {
    let mut t = Table::new(vec!["Wave", "F", "df", "p", "eta^2", "Elements differ?"])
        .with_title("One-way ANOVA across the seven elements (personal growth)");
    for wave in [1usize, 2] {
        let groups: Vec<Vec<f64>> = (0..ALL_ELEMENTS.len())
            .map(|idx| {
                report
                    .cohort
                    .wave(wave)
                    .element_scores(Category::PersonalGrowth, idx)
            })
            .collect();
        let a = stats::anova_one_way(&groups).expect("seven groups of 124");
        t.row(vec![
            wave.to_string(),
            fnum(a.f, 1),
            format!("({}, {})", a.df_between, a.df_within),
            if a.p < 0.001 {
                "p < 0.001".into()
            } else {
                format!("{:.3}", a.p)
            },
            fnum(a.eta_squared, 2),
            if a.significant_at(0.01) {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
    }
    t
}

/// The Spring-2019 counterfactual (§IV–V): rerun the semester with one
/// or two extra Teamwork tasks in Assignments 2–5 and compare the
/// Teamwork emphasis↔growth correlation against Fall 2018.
#[derive(Debug, Clone, PartialEq)]
pub struct Spring2019Comparison {
    /// Fall Teamwork r (wave 1, wave 2).
    pub fall: (f64, f64),
    /// Spring Teamwork r (wave 1, wave 2).
    pub spring: (f64, f64),
    /// Whether the intervention improved both halves.
    pub improved: bool,
}

/// Runs the counterfactual and tabulates it.
pub fn spring2019() -> (Spring2019Comparison, Table) {
    use classroom::learning::Intervention;
    use classroom::{CohortData, StudyConfig};

    let teamwork_r = |cohort: &CohortData, wave: usize| {
        let idx = 0; // Teamwork is the first element
        stats::pearson(
            &cohort
                .wave(wave)
                .element_scores(Category::ClassEmphasis, idx),
            &cohort
                .wave(wave)
                .element_scores(Category::PersonalGrowth, idx),
        )
        .expect("scores vary")
        .r
    };
    let config = StudyConfig::default();
    let fall = CohortData::generate(&config);
    let spring = CohortData::generate_with(&config, Some(&Intervention::spring2019()));
    let comparison = Spring2019Comparison {
        fall: (teamwork_r(&fall, 1), teamwork_r(&fall, 2)),
        spring: (teamwork_r(&spring, 1), teamwork_r(&spring, 2)),
        improved: teamwork_r(&spring, 1) > teamwork_r(&fall, 1)
            && teamwork_r(&spring, 2) > teamwork_r(&fall, 2),
    };
    let mut t = Table::new(vec![
        "Semester",
        "Teamwork r (1st half)",
        "Teamwork r (2nd half)",
    ])
    .with_title("Spring 2019 plan: extra Teamwork tasks in Assignments 2-5");
    t.row(vec![
        "Fall 2018 (paper)".into(),
        fnum(comparison.fall.0, 2),
        fnum(comparison.fall.1, 2),
    ]);
    t.row(vec![
        "Spring 2019 (+2 tasks)".into(),
        fnum(comparison.spring.0, 2),
        fnum(comparison.spring.1, 2),
    ]);
    (comparison, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::PblStudy;

    fn report() -> StudyReport {
        PblStudy::new().run()
    }

    #[test]
    fn artefact_catalog_is_complete_and_renderable() {
        assert_eq!(ARTEFACTS.len(), 24);
        assert!(is_artefact("table1"));
        assert!(is_artefact("races"));
        assert!(is_artefact("Table4"));
        assert!(is_artefact("metrics"));
        assert!(is_artefact("trace"));
        assert!(is_artefact("semester"));
        assert!(is_artefact("health"));
        assert!(is_artefact("os"));
        assert!(!is_artefact("all"), "all is a composition, not a member");
        assert!(!is_artefact("table9"));
        // Every catalog entry renders; names off the catalog do not.
        // (Cheap entries only — the full sweep is the report binary's
        // job; here we check the dispatch table has no dead rows.)
        for name in [
            "fig1",
            "fig2",
            "assignment5",
            "race",
            "races",
            "semester",
            "health",
        ] {
            let text = render_artefact(name, 1).expect(name);
            assert!(!text.is_empty(), "{name} rendered empty");
        }
        assert!(render_artefact("nope", 1).is_none());
        for name in ARTEFACTS {
            assert!(is_artefact(name), "{name} not recognised");
        }
    }

    #[test]
    fn table1_renders_both_rows_with_paper_column() {
        let t = table1(&report());
        let text = t.render_ascii();
        assert!(text.contains("Class Emphasis"));
        assert!(text.contains("Personal Growth"));
        assert!(text.contains("-0.10, -2.63"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn tables2_and_3_render_the_d_with_band() {
        let r = report();
        let t2 = table2(&r).render_ascii();
        assert!(t2.contains("Cohen's d"));
        assert!(t2.contains("medium") || t2.contains("large") || t2.contains("small"));
        let t3 = table3(&r).render_ascii();
        assert!(t3.contains("0.86 (large)"), "paper column present");
    }

    #[test]
    fn table4_has_seven_rows_with_significance() {
        let t = table4(&report());
        assert_eq!(t.len(), 7);
        let text = t.render_ascii();
        assert!(text.contains("p < 0.001"));
        assert!(text.contains("Evaluation and Decision Making"));
    }

    #[test]
    fn ranking_tables_have_seven_ranks() {
        let r = report();
        for t in [table5(&r), table6(&r)] {
            assert_eq!(t.len(), 7);
            let text = t.render_ascii();
            assert!(text.contains("Teamwork"));
        }
    }

    #[test]
    fn figures_render() {
        assert!(fig1().contains("Assignment 3"));
        let f2 = fig2();
        assert!(f2.contains("Major emphasis"));
        assert!(f2.contains("tremendous growth"));
    }

    #[test]
    fn assignment5_table_has_ten_rows() {
        let t = assignment5();
        assert_eq!(t.len(), 10);
        let text = t.render_ascii();
        assert!(text.contains("OpenMP"));
        assert!(text.contains("C++11 threads"));
    }

    #[test]
    fn race_table_shows_fixes_correct() {
        let t = race_demo();
        assert_eq!(t.len(), 4);
        let text = t.render_ascii();
        assert!(text.contains("Atomic"));
        assert!(text.contains("true"));
    }

    #[test]
    fn races_table_finds_the_bug_and_certifies_the_fixes() {
        let t = races_table();
        assert_eq!(t.len(), 4);
        let text = t.render_ascii();
        assert_eq!(text.matches("RACE").count(), 1, "only None races: {text}");
        assert_eq!(text.matches("race-free over explored space").count(), 3);
        assert!(text.contains("choices"), "counterexample was shrunk");
        // Deterministic across calls.
        assert_eq!(text, races_table().render_ascii());
    }

    #[test]
    fn gap_analysis_covers_all_elements() {
        let t = gap_analysis(&report());
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn full_report_contains_every_artefact() {
        let text = full_report(&report());
        for needle in [
            "Figure 1",
            "Figure 2",
            "Table 1.",
            "Table 2.",
            "Table 3.",
            "Table 4.",
            "Table 5.",
            "Table 6.",
            "drug design",
            "data race",
            "Replication:",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn replication_table_reports_recurring_conclusions() {
        let t = replication(12, 2);
        assert_eq!(t.len(), 6);
        let text = t.render_ascii();
        assert!(text.contains("12 independent cohorts"));
        assert!(text.contains("Growth t-test significant"));
        // At the full cohort size the headline effect recurs in every
        // replicate of a small batch.
        assert!(text.contains("1.000"), "{text}");
    }

    #[test]
    fn element_growth_differences_are_real() {
        let t = element_anova(&report());
        assert_eq!(t.len(), 2);
        let text = t.render_ascii();
        // The ranking tables only mean something if the element means
        // differ beyond noise; both waves should reject decisively.
        assert_eq!(text.matches("yes").count(), 2, "{text}");
        assert!(text.contains("p < 0.001"));
    }

    #[test]
    fn robustness_tests_agree_with_table1() {
        let t = robustness(&report());
        assert_eq!(t.len(), 2);
        let text = t.render_ascii();
        assert!(text.contains("Wilcoxon"));
        // Every p-value cell should be well under 0.05; crudely check
        // no cell shows an insignificant value like 0.5 or higher by
        // asserting the rendered p-values all start with "0.0".
        for line in text
            .lines()
            .filter(|l| l.contains("Class") || l.contains("Growth"))
        {
            let ps: Vec<&str> = line.split('|').map(str::trim).skip(2).take(3).collect();
            for p in ps {
                assert!(p.starts_with("0.0"), "p cell {p} in {line}");
            }
        }
    }

    #[test]
    fn sections_rarely_differ_across_seeds() {
        // The generative model has no section effect, so at alpha = 5%
        // roughly one cell in twenty flags by chance. Check the
        // rejection rate over several seeds stays near that.
        let mut cells = 0usize;
        let mut flagged = 0usize;
        for seed in 0..10u64 {
            let r = PblStudy::with_config(classroom::StudyConfig {
                num_students: 124,
                seed,
            })
            .run();
            let text = section_equivalence(&r).render_ascii();
            cells += 2;
            flagged += text.matches("yes (sampling)").count();
        }
        assert!(
            flagged * 5 <= cells,
            "{flagged}/{cells} section comparisons flagged"
        );
    }

    #[test]
    fn assessment_table_shows_growth() {
        let t = assessment_table(&report());
        assert_eq!(t.len(), 5 + 2 + 1);
        let text = t.render_ascii();
        assert!(text.contains("Quiz 5"));
        assert!(text.contains("Final (week 15)"));
        assert!(text.contains("p < 0.001"));
    }

    #[test]
    fn metrics_snapshot_is_byte_identical_across_runs_and_thread_counts() {
        let a = metrics_snapshot(1);
        let b = metrics_snapshot(4);
        assert_eq!(a.to_json(), b.to_json(), "golden snapshot invariant");
        assert_eq!(a.digest(), b.digest());
        for needle in [
            "pi_sim/cache/l1_hits",
            "pi_sim/events/queue_depth",
            "parallel_rt/chunks/guided",
            "mapreduce/shuffle/shuffled_pairs",
            "mapreduce/partition/skew",
            "replicate/chunks_dispatched",
        ] {
            assert!(a.to_json().contains(needle), "missing {needle}");
        }
        assert!(a.render_text().contains("metrics snapshot"));
    }

    #[test]
    fn demo_trace_merges_all_four_layers_and_is_thread_invariant() {
        let a = demo_trace(1);
        let b = demo_trace(4);
        assert_eq!(
            a.to_chrome_json(),
            b.to_chrome_json(),
            "golden trace invariant"
        );
        assert_eq!(a.digest(), b.digest());

        let json = a.to_chrome_json();
        for process in ["sim-loop", "tree-reduction", "word-count", "replication"] {
            assert!(json.contains(process), "missing process {process}");
        }
        let analysis = obs::trace::analyze::analyze(&a);
        assert!(analysis.attribution_is_exact());
        assert!(!analysis.critical_path.is_empty());
        for cat in [
            obs::trace::category::SLICE,
            obs::trace::category::BARRIER_WAIT,
            obs::trace::category::PHASE,
            obs::trace::category::CHUNK,
        ] {
            assert!(
                analysis
                    .lanes
                    .iter()
                    .any(|l| l.busy.iter().any(|(c, cycles)| c == cat && *cycles > 0)),
                "no busy cycles attributed to {cat}"
            );
        }
    }

    #[test]
    fn spring2019_plan_improves_the_teamwork_correlation() {
        let (cmp, table) = spring2019();
        assert!(cmp.improved, "{cmp:?}");
        assert!(cmp.spring.0 > cmp.fall.0);
        assert!(cmp.spring.1 > cmp.fall.1);
        let text = table.render_ascii();
        assert!(text.contains("Fall 2018"));
        assert!(text.contains("Spring 2019"));
    }

    #[test]
    fn descriptive_matches_the_paper_percentages() {
        let text = descriptive(&report()).render_ascii();
        assert!(text.contains("79.03%"));
        assert!(text.contains("20.97%"));
    }
}
