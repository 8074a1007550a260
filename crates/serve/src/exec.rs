//! Pure job execution: one [`JobSpec`] in, one [`JobResult`] out.
//!
//! Each execution owns a private [`obs::Registry`], so the metrics
//! snapshot embedded in the result describes exactly this job — and a
//! cache hit later replays byte-identical metrics. Nothing here reads
//! clocks, thread ids or global state: `execute` is a pure function of
//! the spec, which is what lets the service cache by content digest
//! and fan jobs across any number of workers without changing results.

use parallel_rt::sim::{simulate_parallel_loop_with_metrics, simulate_reduction, SimOptions};
use stats::rng::Xoshiro256;

use crate::result::JobResult;
use crate::spec::{JobSpec, MrWorkload};

/// Words the synthetic MapReduce corpus draws from — course-flavoured
/// so grep patterns like `parallel` have deterministic hit sets.
const VOCABULARY: [&str; 24] = [
    "parallel",
    "loop",
    "thread",
    "barrier",
    "reduction",
    "chunk",
    "static",
    "dynamic",
    "guided",
    "openmp",
    "race",
    "atomic",
    "speedup",
    "pi",
    "drug",
    "ligand",
    "team",
    "quiz",
    "survey",
    "growth",
    "mapreduce",
    "shuffle",
    "cache",
    "core",
];

/// Deterministic synthetic corpus: `docs` documents of 12–35 words
/// drawn from [`VOCABULARY`] by a Xoshiro stream seeded with `seed`.
fn corpus(docs: u32, seed: u64) -> Vec<String> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..docs)
        .map(|_| {
            let words = 12 + rng.next_below(24);
            let mut doc = String::new();
            for w in 0..words {
                if w > 0 {
                    // Sentence breaks give grep multi-line documents.
                    doc.push(if w % 8 == 0 { '\n' } else { ' ' });
                }
                doc.push_str(VOCABULARY[rng.next_below(VOCABULARY.len())]);
            }
            doc
        })
        .collect()
}

/// Executes `spec` to completion, recording the engine's metrics into
/// a registry private to this call and embedding the deterministic
/// snapshot in the result.
pub fn execute(spec: &JobSpec) -> JobResult {
    let registry = obs::Registry::new();
    let payload = match spec {
        JobSpec::LoopSim {
            iterations,
            cost,
            schedule,
            threads,
        } => {
            let outcome = simulate_parallel_loop_with_metrics(
                *iterations as usize,
                &cost.to_model(),
                schedule.to_schedule(),
                *threads as usize,
                &SimOptions::default(),
                &registry,
            );
            format!(
                "loop: {} iterations, {} threads, schedule {}\ncycles: {}\nimbalance: {}\niterations/thread: {:?}\n",
                iterations,
                threads,
                schedule.to_schedule().label(),
                outcome.cycles,
                outcome.imbalance(),
                outcome.iterations_per_thread,
            )
        }
        JobSpec::ReductionSim {
            iterations,
            iter_cost,
            threads,
            style,
        } => {
            let cycles = simulate_reduction(
                *iterations as usize,
                *iter_cost,
                *threads as usize,
                style.to_style(),
                &SimOptions::default(),
            );
            registry
                .counter("serve/reduction/cycles", obs::Domain::Virtual)
                .add(cycles);
            format!(
                "reduction: {iterations} iterations x {iter_cost} cycles, {threads} threads, {style:?}\ncycles: {cycles}\n"
            )
        }
        JobSpec::MapReduce {
            workload,
            docs,
            seed,
            map_workers,
            reduce_workers,
        } => {
            let config = mapreduce::JobConfig {
                map_workers: *map_workers as usize,
                reduce_workers: *reduce_workers as usize,
                use_combiner: true,
                ..Default::default()
            };
            let texts = corpus(*docs, *seed);
            let (stats, payload) = match workload {
                MrWorkload::WordCount => {
                    let out = mapreduce::run_job(&mapreduce::examples::WordCount, texts, &config);
                    (out.stats, render_counts("wordcount", &out.results))
                }
                MrWorkload::InvertedIndex => {
                    let out = mapreduce::run_job(
                        &mapreduce::examples::InvertedIndex,
                        texts.into_iter().enumerate().collect(),
                        &config,
                    );
                    (out.stats, render_postings("inverted_index", &out.results))
                }
                MrWorkload::Grep { pattern } => {
                    let out = mapreduce::run_job(
                        &mapreduce::examples::Grep {
                            pattern: pattern.clone(),
                        },
                        texts.into_iter().enumerate().collect(),
                        &config,
                    );
                    let title = format!("grep {pattern:?}");
                    (out.stats, render_postings(&title, &out.results))
                }
            };
            stats.record_metrics(&registry);
            payload
        }
        JobSpec::Replication {
            replicates,
            num_students,
            master_seed,
            permutations,
            bootstrap_reps,
            section_permutations,
        } => {
            // Threads fixed at 1: the service parallelises across
            // jobs, not inside them; the report is thread-invariant
            // anyway, so this choice cannot change the payload.
            let cfg = pbl_core::replicate::ReplicationConfig {
                replicates: *replicates as usize,
                threads: 1,
                num_students: *num_students as usize,
                master_seed: *master_seed,
                permutations: *permutations as usize,
                bootstrap_reps: *bootstrap_reps as usize,
                section_permutations: *section_permutations as usize,
            };
            let report = pbl_core::replicate::run_replication_batched(&cfg);
            report.record_metrics(&registry);
            format!(
                "replication: {} replicates x {} students, master seed {}\ndigest: {:016x}\n",
                replicates,
                num_students,
                master_seed,
                report.digest(),
            )
        }
        JobSpec::Report { artefact } => {
            // The semester artefact's renderer lives in this crate
            // (core's catalogue entry is a pointer to avoid a
            // dependency cycle), so dispatch it directly.
            let text = if artefact.eq_ignore_ascii_case("semester") {
                crate::cluster::semester_artefact()
            } else {
                pbl_core::experiments::render_artefact(artefact, 1)
                    .unwrap_or_else(|| format!("unknown artefact {artefact:?}\n"))
            };
            registry
                .counter("serve/report/bytes", obs::Domain::Virtual)
                .add(text.len() as u64);
            text
        }
    };
    JobResult {
        metrics_json: registry.snapshot().to_json_with_digest(),
        payload,
    }
}

fn render_counts(title: &str, results: &[(String, u64)]) -> String {
    let mut out = format!("{title}: {} keys\n", results.len());
    for (key, count) in results {
        out.push_str(&format!("{key}: {count}\n"));
    }
    out
}

fn render_postings(title: &str, results: &[(String, Vec<usize>)]) -> String {
    let mut out = format!("{title}: {} keys\n", results.len());
    for (key, docs) in results {
        out.push_str(&format!("{key}: {docs:?}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CostSpec, ReductionStyleSpec, ScheduleSpec};

    #[test]
    fn execute_is_deterministic_per_spec() {
        let specs = [
            JobSpec::LoopSim {
                iterations: 2_000,
                cost: CostSpec::Linear { base: 50, slope: 1 },
                schedule: ScheduleSpec::Dynamic { chunk: 64 },
                threads: 4,
            },
            JobSpec::ReductionSim {
                iterations: 1_000,
                iter_cost: 80,
                threads: 4,
                style: ReductionStyleSpec::Tree,
            },
            JobSpec::MapReduce {
                workload: MrWorkload::WordCount,
                docs: 12,
                seed: 9,
                map_workers: 3,
                reduce_workers: 2,
            },
            JobSpec::Report {
                artefact: "fig1".into(),
            },
        ];
        for spec in &specs {
            let a = execute(spec);
            let b = execute(spec);
            assert_eq!(a, b, "{spec:?} not deterministic");
            assert!(!a.payload.is_empty());
            assert!(a.metrics_json.contains("\"digest\""), "{spec:?}");
        }
    }

    #[test]
    fn mapreduce_corpus_depends_on_seed_and_size() {
        let a = corpus(6, 1);
        let b = corpus(6, 1);
        let c = corpus(6, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|d| !d.is_empty()));
    }

    #[test]
    fn grep_finds_vocabulary_words() {
        let spec = JobSpec::MapReduce {
            workload: MrWorkload::Grep {
                pattern: "parallel".into(),
            },
            docs: 20,
            seed: 3,
            map_workers: 2,
            reduce_workers: 2,
        };
        let out = execute(&spec);
        assert!(out.payload.contains("grep"), "{}", out.payload);
        // 20 documents of course vocabulary virtually guarantee a hit.
        assert!(!out.payload.starts_with("grep \"parallel\": 0 keys"));
    }
}
