//! `replication`: whole replication studies through
//! `pbl_core::replicate::run_replication_batched` at two threads with
//! the default battery (1000 replicates; 4000 permutations, 1000
//! bootstrap reps and 1000 section permutations each).
//!
//! Closed loop over units: one unit is one study, the next starts when
//! the previous returns. The run cycles through [`STUDIES`] studies:
//! the default study (master seed 278, the pinned
//! `0x1f019b7087960994`) and seven whose master seeds are split from
//! the workload seed.

use classroom::cohort::CohortScoreModel;
use classroom::{CohortData, StudyConfig};
use pbl_core::replicate::{
    run_replication, run_replication_batched, ReplicateSummary, ReplicationConfig,
};
use replicate::ReplicateCtx;
use stats::batch::{
    bootstrap_mean_ci_batch, permutation_test_paired_batch, permutation_test_two_sample_batch,
    BatchScratch, CohortBatch,
};
use stats::rng::StreamSeeder;
use stats::{cohen_d_independent, t_test_paired};

use crate::harness::{guarded, median, Budget, Pass, Report, Stopwatch, SETUP_REPS};
use crate::pins;
use crate::tracer::{close, Tracer, UNIT};

/// Worker threads of every study.
pub const THREADS: usize = 2;
/// Studies in one cycle of the workload.
pub const STUDIES: usize = 8;
/// Replicates per replayed chunk (the engine's work-queue chunk).
const CHUNK: usize = replicate::DEFAULT_CHUNK;

/// The study configurations of workload seed `seed`, in run order.
pub fn studies(seed: u64) -> Vec<ReplicationConfig> {
    let seeder = StreamSeeder::new(seed);
    (0..STUDIES)
        .map(|k| ReplicationConfig {
            threads: THREADS,
            master_seed: if k == 0 {
                ReplicationConfig::default().master_seed
            } else {
                seeder.split_seed(k as u64)
            },
            ..ReplicationConfig::default()
        })
        .collect()
}

/// The digests each study must reproduce: pinned for the default study
/// and for pinned workload seeds; otherwise those of the scalar engine
/// (`run_replication`, the batched engine's oracle), computed after
/// the measurement.
fn expected(seed: u64, configs: &[ReplicationConfig], notes: &mut Vec<String>) -> Vec<u64> {
    let table = pins::replication(seed);
    if table.is_some() {
        notes.push(format!(
            "output check: pinned study digests for seed {seed}"
        ));
    } else {
        notes.push(format!(
            "output check: seed {seed} is not pinned; studies compared with the scalar engine"
        ));
    }
    configs
        .iter()
        .enumerate()
        .map(|(k, cfg)| match (k, table) {
            (0, _) => pins::DEFAULT_STUDY_DIGEST,
            (_, Some(table)) => table[k - 1],
            (_, None) => run_replication(cfg).digest(),
        })
        .collect()
}

/// Median CPU set-up time: building the study configurations and one
/// warm-up study (fresh threads and arenas), repeated [`SETUP_REPS`]
/// times.
fn setup(seed: u64) -> (f64, Vec<ReplicationConfig>, bool) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut configs = Vec::new();
    let mut warm_ok = true;
    for _ in 0..SETUP_REPS {
        let watch = Stopwatch::start();
        configs = studies(seed);
        let digest = guarded(|| run_replication_batched(&configs[0]).digest());
        times.push(watch.cpu_ms() / 1e3);
        warm_ok &= digest == Some(pins::DEFAULT_STUDY_DIGEST);
    }
    (median(&times), configs, warm_ok)
}

/// Runs studies in cycle order until the budget closes or `max_units`
/// studies are done, recording one unit per study and each study's
/// digest.
fn measure(
    configs: &[ReplicationConfig],
    budget: &Budget,
    max_units: usize,
    pass: &mut Pass,
) -> Vec<(usize, Option<u64>)> {
    let mut digests = Vec::new();
    let mut k = 0usize;
    while k < max_units && budget.more(pass.units as usize) {
        let key = k % configs.len();
        let cfg = &configs[key];
        let watch = Stopwatch::start();
        let report = guarded(|| run_replication_batched(cfg));
        let lap = watch.lap_ms();
        let replicates = cfg.replicates as f64;
        pass.unit(key as u64, lap, replicates, replicates);
        digests.push((key, report.map(|r| r.digest())));
        k += 1;
    }
    digests
}

/// Marks every study whose digest differs from `want` as failed.
fn check(
    digests: &[(usize, Option<u64>)],
    want: &[u64],
    configs: &[ReplicationConfig],
    pass: &mut Pass,
) {
    for &(k, got) in digests {
        if got != Some(want[k]) {
            pass.units_failed += 1;
            pass.ops_failed += configs[k].replicates as f64;
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let (setup_s, configs, warm_ok) = setup(seed);
    let mut report = Report::default();
    report.metrics.set("setup_s", setup_s);
    let budget = Budget::start(seconds);
    let mut pass = Pass::default();
    let digests = measure(&configs, &budget, usize::MAX, &mut pass);
    let want = expected(seed, &configs, &mut report.notes);
    check(&digests, &want, &configs, &mut pass);
    report.notes.push(format!(
        "ran {} studies of {} replicates at {THREADS} threads",
        pass.units, configs[0].replicates
    ));
    report.notes.push(pass.wall_note());
    report.correct = warm_ok && pass.units_failed == 0;
    report.attempted = pass.units;
    report.failed = pass.units_failed;
    pass.end_to_end(&mut report.metrics);
    report
}

/// Sub-stream indices of the replicate battery, as in
/// `pbl_core::replicate` (the replay's bit-identity check would catch
/// any drift).
mod stream {
    pub const EMPHASIS_PERM: u64 = 1;
    pub const GROWTH_PERM: u64 = 2;
    pub const EMPHASIS_BOOT: u64 = 3;
    pub const GROWTH_BOOT: u64 = 4;
    pub const SECTION_PERM: u64 = 5;
}

/// Column layout of the replayed chunk.
mod field {
    pub const E1: usize = 0;
    pub const E2: usize = 1;
    pub const G1: usize = 2;
    pub const G2: usize = 3;
    pub const EDIFF: usize = 4;
    pub const GDIFF: usize = 5;
    pub const COUNT: usize = 6;
}

/// Layer operations inside a replayed chunk; they must add up to it.
const CHUNK_CHILDREN: [&str; 5] = [
    "classroom.wave_scores",
    "stats.parametric",
    "stats.perm_paired",
    "stats.bootstrap",
    "stats.perm_two_sample",
];

/// Replays replicates `range` of `cfg` serially through the public
/// kernels the batched engine runs — cohort score model, parametric
/// tests, paired permutations, bootstrap CIs, section permutations —
/// one span per layer. Returns the summaries, to be compared with the
/// engine's.
fn replay_chunk(
    tracer: &mut Tracer,
    unit: u64,
    cfg: &ReplicationConfig,
    range: std::ops::Range<usize>,
) -> Vec<ReplicateSummary> {
    let seeder = StreamSeeder::new(cfg.master_seed);
    let ctxs: Vec<ReplicateCtx> = range
        .map(|index| ReplicateCtx {
            index,
            seed: seeder.split_seed(index as u64),
        })
        .collect();
    let lanes = ctxs.len();
    let n = CohortData::effective_size(cfg.num_students);
    let model = CohortScoreModel::new();
    let mut cols = CohortBatch::new();
    let mut scratch = BatchScratch::new();
    let seeds = |k: u64| -> Vec<u64> { ctxs.iter().map(|c| c.stream_seed(k)).collect() };
    let all_seeds: Vec<Vec<u64>> = (1..=5).map(seeds).collect();

    let start = tracer.now();
    let sections = tracer.layer("classroom.wave_scores", "replay", unit, || {
        cols.reset(field::COUNT, lanes, n);
        let mut sections = Vec::with_capacity(lanes);
        for (lane, ctx) in ctxs.iter().enumerate() {
            let study = StudyConfig {
                num_students: cfg.num_students,
                seed: ctx.seed,
            };
            let (e1, g1) = cols.lane_pair_mut(field::E1, field::G1, lane);
            model.wave_scores_into(&study, 1, e1, g1);
            let (e2, g2) = cols.lane_pair_mut(field::E2, field::G2, lane);
            model.wave_scores_into(&study, 2, e2, g2);
            cols.lane_diff(field::EDIFF, field::E2, field::E1, lane);
            cols.lane_diff(field::GDIFF, field::G2, field::G1, lane);
            let scores = cols.lane(field::E2, lane);
            let mut split = CohortScoreModel::section_split(scores.len());
            if split < 2 || scores.len() - split < 2 {
                split = scores.len() / 2;
            }
            sections.push((scores[..split].to_vec(), scores[split..].to_vec()));
        }
        sections
    });
    let parametrics = tracer.layer("stats.parametric", "replay", unit, || {
        (0..lanes)
            .map(|lane| {
                let (e1, e2) = (cols.lane(field::E1, lane), cols.lane(field::E2, lane));
                let (g1, g2) = (cols.lane(field::G1, lane), cols.lane(field::G2, lane));
                (
                    t_test_paired(e1, e2).expect("cohort has variance"),
                    t_test_paired(g1, g2).expect("cohort has variance"),
                    cohen_d_independent(e1, e2).expect("cohort has variance"),
                    cohen_d_independent(g1, g2).expect("cohort has variance"),
                )
            })
            .collect::<Vec<_>>()
    });
    let (emphasis_perm, growth_perm) = tracer.layer("stats.perm_paired", "replay", unit, || {
        let mut run = |a: usize, b: usize, seeds: &[u64]| {
            permutation_test_paired_batch(
                &cols.lane_refs(a),
                &cols.lane_refs(b),
                cfg.permutations,
                seeds,
                &mut scratch,
            )
            .expect("cohort has variance")
        };
        (
            run(
                field::E1,
                field::E2,
                &all_seeds[stream::EMPHASIS_PERM as usize - 1],
            ),
            run(
                field::G1,
                field::G2,
                &all_seeds[stream::GROWTH_PERM as usize - 1],
            ),
        )
    });
    let (emphasis_boot, growth_boot) = tracer.layer("stats.bootstrap", "replay", unit, || {
        let mut run = |f: usize, seeds: &[u64]| {
            bootstrap_mean_ci_batch(
                &cols.lane_refs(f),
                0.95,
                cfg.bootstrap_reps,
                seeds,
                &mut scratch,
            )
            .expect("cohort has variance")
        };
        (
            run(field::EDIFF, &all_seeds[stream::EMPHASIS_BOOT as usize - 1]),
            run(field::GDIFF, &all_seeds[stream::GROWTH_BOOT as usize - 1]),
        )
    });
    let section_perm = tracer.layer("stats.perm_two_sample", "replay", unit, || {
        let a: Vec<&[f64]> = sections.iter().map(|(a, _)| a.as_slice()).collect();
        let b: Vec<&[f64]> = sections.iter().map(|(_, b)| b.as_slice()).collect();
        permutation_test_two_sample_batch(
            &a,
            &b,
            cfg.section_permutations,
            &all_seeds[stream::SECTION_PERM as usize - 1],
            &mut scratch,
        )
        .expect("both sections populated")
    });
    tracer.unit(UNIT, "replay", unit, start, tracer.now());

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

/// Per-chunk layer operations reported as `<op>_ms`, mean per replayed
/// chunk of [`CHUNK`] replicates.
const CHUNK_MS: [(&str, &str); 5] = [
    ("classroom.wave_scores", "classroom.wave_scores_ms"),
    ("stats.parametric", "stats.parametric_ms"),
    ("stats.perm_paired", "stats.perm_paired_ms"),
    ("stats.bootstrap", "stats.bootstrap_ms"),
    ("stats.perm_two_sample", "stats.perm_two_sample_ms"),
];

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, seconds: f64, trace_file: &str) -> Report {
    let (_, configs, warm_ok) = setup(seed);
    let mut report = Report::default();

    // Untraced reference studies for the tracing overhead.
    let mut untraced = Pass::default();
    let reference = measure(&configs, &Budget::start(0.0), 2 * STUDIES, &mut untraced);

    let budget = Budget::start(seconds);
    let mut tracer = Tracer::new();
    let mut studies = Vec::new();
    let mut study_ms = Vec::new();
    let mut failures = 0u64;
    let chunks = configs[0].replicates.div_ceil(CHUNK);
    let mut unit = 0u64;
    while unit < STUDIES as u64 || !budget.window_closed() {
        let k = unit as usize % configs.len();
        let cfg = &configs[k];
        let start = tracer.now();
        let study = tracer.layer("replicate.run", "study", unit, || {
            run_replication_batched(cfg)
        });
        let end = tracer.now();
        tracer.unit(UNIT, "study", unit, start, end);
        study_ms.push((end - start) as f64 / 1e6);
        let c = unit as usize % chunks;
        let range = c * CHUNK..((c + 1) * CHUNK).min(cfg.replicates);
        let replayed = replay_chunk(&mut tracer, unit, cfg, range.clone());
        failures += u64::from(replayed.as_slice() != &study.summaries[range]);
        studies.push((k, Some(study.digest())));
        unit += 1;
    }
    let want = expected(seed, &configs, &mut report.notes);
    let mut checked = Pass::default();
    check(&studies, &want, &configs, &mut checked);
    check(&reference, &want, &configs, &mut checked);
    failures += checked.units_failed;

    report.notes.push(format!(
        "traced {unit} studies, replaying one {CHUNK}-replicate chunk of each at 1 thread"
    ));
    let mut children = vec!["replicate.run"];
    children.extend(CHUNK_CHILDREN);
    let (times, attributed) = close(
        tracer,
        trace_file,
        &children,
        &study_ms,
        &untraced,
        &mut report,
    );
    let units = unit.max(1) as f64;
    let m = &mut report.metrics;
    m.set(
        "replicate.run_ms",
        times.layer_ns("replicate.run") as f64 / 1e6 / units,
    );
    for (op, name) in CHUNK_MS {
        m.set(name, times.layer_ns(op) as f64 / 1e6 / units);
    }
    let cfg = &configs[0];
    m.set(
        "stats.permutation_draws",
        (cfg.replicates * (2 * cfg.permutations + cfg.section_permutations)) as f64,
    );
    m.set(
        "stats.bootstrap_draws",
        (cfg.replicates * 2 * cfg.bootstrap_reps) as f64,
    );
    report.correct = attributed && warm_ok && failures == 0;
    report.attempted = unit;
    report.failed = failures.min(unit);
    report
}

/// The digests of workload seed `seed`'s studies, the default study
/// first (the tables in `pins.rs` are this function's output at the
/// parent commit).
pub fn compute_pins(seed: u64) -> Vec<u64> {
    studies(seed)
        .iter()
        .map(|cfg| run_replication_batched(cfg).digest())
        .collect()
}
