//! CI race gate over the schedule-space explorer.
//!
//! Runs the `parallel_rt::explore` explorer across the Assignment-2
//! shared-counter patternlet family and enforces the acceptance oracle:
//!
//! * the buggy patternlet (`FixStrategy::None`) must expose its race in
//!   both search modes (seeded random fuzzing and sleep-set DPOR);
//! * every fix (`Critical`, `Atomic`, `Reduction`) must certify
//!   race-free with the systematic space exhausted — a verdict over the
//!   *entire* bounded schedule space, not a sample;
//! * the counterexample must shrink to a minimal schedule that still
//!   reproduces the same race signature;
//! * replaying the (minimal) schedule from its choice string must be
//!   bit-identical: same trace digest every time.
//!
//! Usage:
//!   racecheck [--check] [--fuzz-budget N] [--shrink]
//!             [--counterexample-out FILE] [out.json]
//!
//! Default output path: `BENCH_racecheck.json` in the current
//! directory. `--check` additionally compares the fresh document
//! against the committed `BENCH_racecheck.json` byte for byte (the
//! whole document is deterministic) and exits 1 on any oracle failure
//! or drift. `--shrink` prints the minimized schedule step by step.
//! `--counterexample-out FILE` writes the minimized counterexample as
//! a standalone JSON artifact (what CI uploads on failure — and on
//! success, since the buggy patternlet always yields one). Any other
//! argument starting with `-` prints the usage line and exits 2.
//!
//! When `$GITHUB_STEP_SUMMARY` is set (CI), the per-strategy verdict
//! table is appended there as markdown; locally this is a no-op.

use obs::json::{self, Layout};
use parallel_rt::explore::search::{fuzz, systematic, Budget, Counterexample, StrategyReport};
use parallel_rt::explore::shrink::{reproduces, shrink_counterexample};
use parallel_rt::explore::vm::replay;
use parallel_rt::race::{patternlet_program, FixStrategy};
use pbl_bench::{compare_or_write, summary};

/// Master seed of the fuzz pass; split per schedule by
/// `stats::rng::StreamSeeder`, the workspace-wide seed discipline.
const MASTER_SEED: u64 = 0x5245_4143; // "REAC[h]" — fixed, arbitrary

/// Default random-schedule budget (`--fuzz-budget` overrides).
const DEFAULT_FUZZ_BUDGET: usize = 64;

/// Systematic budget: the 2-lane × 2-increment patternlets have
/// schedule spaces of at most a few thousand interleavings after
/// sleep-set pruning, so this always exhausts them.
const SYSTEMATIC_BUDGET: usize = 200_000;

/// Lanes / increments of the modeled patternlets. Small enough for the
/// systematic mode to exhaust, large enough that the racy program has
/// interleavings that lose updates.
const LANES: usize = 2;
const INCREMENTS: usize = 2;

struct StrategyRun {
    strategy: FixStrategy,
    fuzz: StrategyReport,
    systematic: StrategyReport,
    /// Minimized counterexample (from the systematic find), when any.
    minimal: Option<Counterexample>,
    /// Original (unshrunk) choice-string length.
    original_len: usize,
    /// Replaying the minimal schedule twice gave the same digest.
    replay_bit_identical: bool,
}

fn run_strategy(strategy: FixStrategy, fuzz_budget: usize) -> StrategyRun {
    let program = patternlet_program(strategy, LANES, INCREMENTS);
    let fuzz_report = fuzz(&program, MASTER_SEED, Budget::schedules(fuzz_budget));
    let sys_report = systematic(&program, Budget::schedules(SYSTEMATIC_BUDGET));
    let (minimal, original_len, replay_bit_identical) = match &sys_report.counterexample {
        Some(cex) => {
            let (shrunk, exec) = shrink_counterexample(&program, cex);
            let again = replay(&program, &shrunk.choices);
            (
                Some(shrunk),
                cex.choices.len(),
                again.trace_digest == exec.trace_digest && again.trace_digest.is_some(),
            )
        }
        None => {
            // Certified programs still exercise the replay oracle on
            // the canonical lane-order schedule.
            let a = replay(&program, &[]);
            let b = replay(&program, &[]);
            (
                None,
                0,
                a.trace_digest == b.trace_digest && a.trace_digest.is_some(),
            )
        }
    };
    StrategyRun {
        strategy,
        fuzz: fuzz_report,
        systematic: sys_report,
        minimal,
        original_len,
        replay_bit_identical,
    }
}

/// The acceptance oracle. Returns every violated clause by name.
fn oracle_failures(runs: &[StrategyRun]) -> Vec<String> {
    let mut fails = Vec::new();
    for run in runs {
        let name = format!("{:?}", run.strategy);
        match run.strategy {
            FixStrategy::None => {
                if run.fuzz.race_runs == 0 {
                    fails.push(format!("{name}: fuzzing found no race"));
                }
                if run.systematic.race_runs == 0 {
                    fails.push(format!("{name}: systematic search found no race"));
                }
                if !run.systematic.space_exhausted {
                    fails.push(format!("{name}: schedule space not exhausted"));
                }
                match &run.minimal {
                    None => fails.push(format!("{name}: no counterexample to shrink")),
                    Some(min) => {
                        let program = patternlet_program(run.strategy, LANES, INCREMENTS);
                        if !reproduces(&program, &min.choices, min.race_signature) {
                            fails.push(format!(
                                "{name}: minimized schedule no longer reproduces the race"
                            ));
                        }
                        if min.choices.len() > run.original_len {
                            fails.push(format!("{name}: shrinking grew the schedule"));
                        }
                    }
                }
            }
            _ => {
                if !run.systematic.certified() {
                    fails.push(format!("{name}: fix not certified race-free"));
                }
                if !run.systematic.space_exhausted {
                    fails.push(format!(
                        "{name}: certification did not cover the whole space"
                    ));
                }
                if !run.fuzz.certified() {
                    fails.push(format!("{name}: fuzzing found a race in a fixed program"));
                }
            }
        }
        if !run.replay_bit_identical {
            fails.push(format!("{name}: replay is not bit-identical"));
        }
    }
    fails
}

/// The minimized-counterexample artifact CI uploads.
fn counterexample_json(run: &StrategyRun) -> String {
    json::document(0, false, |doc| {
        doc.str("program", &run.systematic.program);
        doc.str("strategy", &format!("{:?}", run.strategy));
        match &run.minimal {
            Some(min) => {
                doc.hex("race_signature", min.race_signature);
                doc.str("race", &min.race);
                doc.u64("expected", min.expected);
                doc.u64("observed", min.observed);
                doc.u64("steps", min.steps as u64);
                doc.u64("original_choices", run.original_len as u64);
                doc.u64s("minimal_choices", min.choices.iter().map(|&c| c as u64));
                doc.hex("trace_digest", min.trace_digest);
                doc.str(
                    "replay",
                    "parallel_rt::explore::vm::replay(patternlet_program(strategy, 2, 2), &minimal_choices)",
                );
            }
            None => {
                doc.token("counterexample", "null");
                doc.str(
                    "note",
                    "program certified race-free over the explored space",
                );
            }
        }
    })
}

fn document(runs: &[StrategyRun], fuzz_budget: usize) -> String {
    json::document(0, false, |doc| {
        doc.str("bench", "racecheck");
        doc.str(
            "description",
            "Schedule-space explorer verdicts over the Assignment-2 shared-counter patternlet family: the buggy program must race, every fix must certify race-free over the exhausted schedule space, counterexamples must shrink and replay bit-identically.",
        );
        doc.str(
            "command",
            "cargo run --release -p pbl-bench --bin racecheck -- --check",
        );
        doc.u64("master_seed", MASTER_SEED);
        doc.u64("fuzz_budget", fuzz_budget as u64);
        doc.u64("systematic_budget", SYSTEMATIC_BUDGET as u64);
        doc.u64("lanes", LANES as u64);
        doc.u64("increments", INCREMENTS as u64);
        doc.str(
            "note",
            "fully deterministic: modeled programs under a controlled scheduler in virtual time; this file is byte-identical on every host and every run",
        );
        doc.array("scenarios", Layout::Block, |scenarios| {
            for run in runs {
                scenarios.object(Layout::Block, |o| {
                    o.str("name", &run.systematic.program);
                    o.str("strategy", &format!("{:?}", run.strategy));
                    o.u64("fuzz_schedules", run.fuzz.schedules as u64);
                    o.u64("fuzz_race_runs", run.fuzz.race_runs as u64);
                    o.u64("systematic_schedules", run.systematic.schedules as u64);
                    o.token("space_exhausted", run.systematic.space_exhausted);
                    o.u64("lost_update_runs", run.systematic.lost_update_runs as u64);
                    o.u64("distinct_races", run.systematic.distinct_races.len() as u64);
                    match &run.minimal {
                        Some(min) => {
                            o.hex("race_signature", min.race_signature);
                            o.u64s("minimal_choices", min.choices.iter().map(|&c| c as u64));
                            o.hex("minimal_trace_digest", min.trace_digest);
                        }
                        None => o.token("race_signature", "null"),
                    }
                    o.token("replay_bit_identical", run.replay_bit_identical);
                    o.token("certified", run.systematic.certified());
                });
            }
        });
    })
}

fn verdict_rows(runs: &[StrategyRun], failures: &[String]) -> Vec<Vec<String>> {
    runs.iter()
        .map(|run| {
            let name = format!("{:?}", run.strategy);
            let failed = failures.iter().any(|f| f.starts_with(&name));
            vec![
                run.systematic.program.clone(),
                run.systematic.schedules.to_string(),
                run.systematic.space_exhausted.to_string(),
                run.systematic.distinct_races.len().to_string(),
                run.minimal
                    .as_ref()
                    .map_or("—".into(), |m| format!("{} choices", m.choices.len())),
                if failed {
                    "❌ oracle failed".into()
                } else if run.systematic.certified() {
                    "✅ race-free over explored space".into()
                } else {
                    "✅ race found, shrunk, replayed".to_string()
                },
            ]
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: racecheck [--check] [--fuzz-budget N] [--shrink] \
         [--counterexample-out FILE] [out.json]"
    );
    std::process::exit(2);
}

fn main() {
    let mut check = false;
    let mut print_shrink = false;
    let mut fuzz_budget = DEFAULT_FUZZ_BUDGET;
    let mut cex_out: Option<String> = None;
    let mut out_path = "BENCH_racecheck.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--shrink" => print_shrink = true,
            "--fuzz-budget" => {
                fuzz_budget = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("racecheck: --fuzz-budget needs a positive integer");
                    std::process::exit(2);
                })
            }
            "--counterexample-out" => {
                cex_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("racecheck: --counterexample-out needs a path");
                    std::process::exit(2);
                }))
            }
            flag if flag.starts_with('-') => usage(),
            path => out_path = path.to_string(),
        }
    }

    let runs: Vec<StrategyRun> = [
        FixStrategy::None,
        FixStrategy::Critical,
        FixStrategy::Atomic,
        FixStrategy::Reduction,
    ]
    .into_iter()
    .map(|s| run_strategy(s, fuzz_budget))
    .collect();

    for run in &runs {
        println!(
            "racecheck: {:<16} fuzz {:>4} schedules ({} racy)   systematic {:>5} schedules \
             (exhausted {}, {} racy, {} distinct)   {}",
            run.systematic.program,
            run.fuzz.schedules,
            run.fuzz.race_runs,
            run.systematic.schedules,
            run.systematic.space_exhausted,
            run.systematic.race_runs,
            run.systematic.distinct_races.len(),
            if run.systematic.certified() {
                "certified race-free over explored space".to_string()
            } else {
                let min = run.minimal.as_ref().expect("uncertified implies cex");
                format!(
                    "RACE {} (minimal schedule {} of {} choices)",
                    min.race,
                    min.choices.len(),
                    run.original_len
                )
            }
        );
        if print_shrink {
            if let Some(min) = &run.minimal {
                println!(
                    "racecheck:   shrink {:?}: {} -> {} choices, signature 0x{:016x}, \
                     digest 0x{:016x}",
                    run.strategy,
                    run.original_len,
                    min.choices.len(),
                    min.race_signature,
                    min.trace_digest
                );
                println!("racecheck:   minimal choice string: {:?}", min.choices);
            }
        }
    }

    let failures = oracle_failures(&runs);
    for f in &failures {
        eprintln!("racecheck: ORACLE FAILURE: {f}");
    }

    // The buggy patternlet's minimized counterexample is the artifact.
    if let Some(path) = &cex_out {
        let buggy = runs
            .iter()
            .find(|r| r.strategy == FixStrategy::None)
            .expect("None is always run");
        std::fs::write(path, counterexample_json(buggy)).unwrap_or_else(|e| {
            eprintln!("racecheck: cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("racecheck: minimized counterexample -> {path}");
    }

    let drift = compare_or_write(
        "racecheck",
        &out_path,
        &document(&runs, fuzz_budget),
        check,
        "the explorer's deterministic verdicts changed — regenerate and review",
    );
    if let Some(f) = &drift {
        eprintln!("racecheck: {f}");
    }

    let ok = failures.is_empty() && drift.is_none();
    summary::append_step_summary(&summary::markdown_table(
        &format!("racecheck — {}", if ok { "PASS" } else { "FAIL" }),
        &[
            "program",
            "schedules",
            "space exhausted",
            "distinct races",
            "minimal counterexample",
            "verdict",
        ],
        &verdict_rows(&runs, &failures),
    ));

    if !ok {
        std::process::exit(1);
    }
    println!(
        "racecheck: OK — race found and shrunk in the buggy patternlet; \
         {} fixes certified race-free over the exhausted schedule space",
        runs.len() - 1
    );
}
