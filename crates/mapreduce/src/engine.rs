//! The execution engine: map task farm → combine → partition → shuffle
//! (group + sort) → reduce task farm, with failure re-execution.
//!
//! Input splits are moved through the pipeline, never cloned: a split
//! travels to a map worker by value, and a failed task hands its split
//! back over the done-channel for re-execution rather than the engine
//! keeping a spare copy. The shuffle groups each bucket through a
//! `HashMap` (O(1) per pair) and sorts the distinct keys once, instead
//! of paying an ordered-map's O(log k) comparisons on every inserted
//! pair.

use std::collections::{HashMap, HashSet};

use crossbeam::channel;

use crate::partition::{bucket_of, partition_skew, split_inputs};
use crate::MapReduce;

/// One reduce bucket after the shuffle: each distinct key with its
/// grouped values, in ascending key order.
type GroupedBucket<M> = Vec<(<M as MapReduce>::Key, Vec<<M as MapReduce>::Value>)>;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Worker threads for the map phase.
    pub map_workers: usize,
    /// Worker threads (and buckets) for the reduce phase.
    pub reduce_workers: usize,
    /// Whether to run the job's combiner on each map task's output.
    pub use_combiner: bool,
    /// Map task ids whose *first* execution attempt fails (the worker
    /// "crashes" after doing the work); the engine must re-execute them.
    /// Models the paper-reading's fault-tolerance discussion.
    pub fail_first_attempt_of: HashSet<usize>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            map_workers: 4,
            reduce_workers: 4,
            use_combiner: false,
            fail_first_attempt_of: HashSet::new(),
        }
    }
}

/// Counters the engine reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Map task executions, including re-executions.
    pub map_attempts: usize,
    /// Map tasks that failed and were retried.
    pub map_failures: usize,
    /// Intermediate pairs after combining (what crosses the shuffle).
    pub shuffled_pairs: usize,
    /// Intermediate pairs before combining.
    pub emitted_pairs: usize,
    /// Distinct keys reduced.
    pub reduced_keys: usize,
    /// Intermediate pairs landing in each reduce bucket, indexed by
    /// bucket — the partition-skew evidence.
    pub bucket_pairs: Vec<usize>,
}

impl JobStats {
    /// Records the job's counters into `registry` under `mapreduce/*`.
    ///
    /// Pair counts, bucket sizes, and partition skew are functions of
    /// the inputs and configuration alone, so they land in
    /// [`obs::Domain::Virtual`] and are byte-identical across reruns.
    pub fn record_metrics(&self, registry: &obs::Registry) {
        use obs::Domain::Virtual;
        let counter = |name, value: usize| {
            registry.counter(name, Virtual).add(value as u64);
        };
        counter("mapreduce/map/attempts", self.map_attempts);
        counter("mapreduce/map/failures", self.map_failures);
        counter("mapreduce/shuffle/emitted_pairs", self.emitted_pairs);
        counter("mapreduce/shuffle/shuffled_pairs", self.shuffled_pairs);
        counter("mapreduce/reduce/keys", self.reduced_keys);
        counter(
            "mapreduce/partition/skew",
            partition_skew(&self.bucket_pairs),
        );
        let bucket_hist = registry.histogram(
            "mapreduce/partition/bucket_pairs",
            Virtual,
            &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
        );
        for &pairs in &self.bucket_pairs {
            bucket_hist.record(pairs as u64);
        }
    }

    /// The job's phase trace.
    ///
    /// Mapreduce has no cycle clock, so the trace's virtual time is the
    /// job's own deterministic unit: **pairs processed**. The `engine`
    /// lane carries three consecutive phase spans — `map` spanning the
    /// emitted pairs, `shuffle` spanning the shuffled (post-combiner)
    /// pairs, `reduce` spanning the reduced keys — plus one counter
    /// sample per shuffle bucket at the shuffle/reduce boundary. None of
    /// these depends on how many workers raced, so the export is
    /// byte-identical for any `map_workers`/`reduce_workers` setting.
    pub fn trace(&self, tcfg: &obs::trace::TraceConfig) -> obs::trace::Trace {
        use obs::trace::category;
        let mut rec = obs::trace::TraceRecorder::new(tcfg);
        let lane = rec.lane("engine");
        let buf = rec.buf(lane);
        let map_end = self.emitted_pairs as u64;
        let shuffle_end = map_end + self.shuffled_pairs as u64;
        let reduce_end = shuffle_end + self.reduced_keys as u64;
        // Span payloads use pair/key counts only: map_attempts is batched
        // per worker and so would break worker-count invariance.
        buf.begin(0, "map", category::PHASE, self.emitted_pairs as u64);
        buf.end(map_end);
        buf.begin(
            map_end,
            "shuffle",
            category::PHASE,
            self.shuffled_pairs as u64,
        );
        buf.end(shuffle_end);
        for (i, &pairs) in self.bucket_pairs.iter().enumerate() {
            buf.counter(
                shuffle_end,
                format!("bucket/{i}"),
                category::CHUNK,
                pairs as u64,
            );
        }
        buf.begin(
            shuffle_end,
            "reduce",
            category::PHASE,
            self.reduced_keys as u64,
        );
        buf.end(reduce_end);
        rec.finish()
    }
}

/// Job result: outputs sorted by key, plus statistics.
#[derive(Debug, Clone)]
pub struct JobOutput<K, O> {
    /// `(key, reduced output)` pairs in ascending key order.
    pub results: Vec<(K, O)>,
    /// Execution counters.
    pub stats: JobStats,
}

/// Runs `job` over `inputs` with `config`.
///
/// # Panics
/// Panics if either worker count is zero.
pub fn run_job<M: MapReduce>(
    job: &M,
    inputs: Vec<M::Input>,
    config: &JobConfig,
) -> JobOutput<M::Key, M::Output> {
    assert!(config.map_workers > 0, "need at least one map worker");
    assert!(config.reduce_workers > 0, "need at least one reduce worker");

    // ---- Map phase: a task farm over input splits. ----
    let splits = split_inputs(inputs, config.map_workers.max(1) * 2);
    let num_tasks = splits.len();
    let (task_tx, task_rx) = channel::unbounded::<(usize, usize, Vec<M::Input>)>();
    for (id, split) in splits.into_iter().enumerate() {
        task_tx.send((id, 0, split)).expect("open");
    }

    let (done_tx, done_rx) =
        channel::unbounded::<(usize, usize, Option<Vec<(M::Key, M::Value)>>, Vec<M::Input>)>();

    let mut stats = JobStats::default();
    let mut buckets: Vec<Vec<(M::Key, M::Value)>> =
        (0..config.reduce_workers).map(|_| Vec::new()).collect();

    std::thread::scope(|scope| {
        for _ in 0..config.map_workers {
            let task_rx = task_rx.clone();
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                while let Ok((task_id, attempt, split)) = task_rx.recv() {
                    let mut pairs = Vec::new();
                    for input in &split {
                        job.map(input, &mut |k, v| pairs.push((k, v)));
                    }
                    if attempt == 0 && config.fail_first_attempt_of.contains(&task_id) {
                        // Crash after the work: output is lost, split is
                        // handed back for re-execution.
                        done_tx.send((task_id, attempt, None, split)).expect("open");
                    } else {
                        done_tx
                            .send((task_id, attempt, Some(pairs), Vec::new()))
                            .expect("open");
                    }
                }
            });
        }
        drop(done_tx);

        let mut completed = 0usize;
        while completed < num_tasks {
            let (task_id, attempt, outcome, split) = done_rx.recv().expect("workers alive");
            stats.map_attempts += 1;
            match outcome {
                Some(pairs) => {
                    completed += 1;
                    stats.emitted_pairs += pairs.len();
                    let pairs = if config.use_combiner {
                        combine_locally(job, pairs)
                    } else {
                        pairs
                    };
                    stats.shuffled_pairs += pairs.len();
                    for (k, v) in pairs {
                        let b = bucket_of(&k, config.reduce_workers);
                        buckets[b].push((k, v));
                    }
                }
                None => {
                    stats.map_failures += 1;
                    task_tx
                        .send((task_id, attempt + 1, split))
                        .expect("queue open");
                }
            }
        }
        drop(task_tx); // workers drain and exit
    });

    // ---- Shuffle: hash-group each bucket, then sort its keys once. ----
    stats.bucket_pairs = buckets.iter().map(Vec::len).collect();
    let grouped: Vec<GroupedBucket<M>> = buckets
        .into_iter()
        .map(|bucket| {
            let mut m: HashMap<M::Key, Vec<M::Value>> = HashMap::new();
            for (k, v) in bucket {
                m.entry(k).or_default().push(v);
            }
            let mut entries: Vec<(M::Key, Vec<M::Value>)> = m.into_iter().collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries
        })
        .collect();

    // ---- Reduce phase: one worker per bucket. ----
    let (out_tx, out_rx) = channel::unbounded::<(M::Key, M::Output)>();
    std::thread::scope(|scope| {
        for bucket in grouped {
            let out_tx = out_tx.clone();
            scope.spawn(move || {
                for (key, values) in bucket {
                    let out = job.reduce(&key, values);
                    out_tx.send((key, out)).expect("collector alive");
                }
            });
        }
        drop(out_tx);
    });
    let mut results: Vec<(M::Key, M::Output)> = out_rx.into_iter().collect();
    results.sort_by(|a, b| a.0.cmp(&b.0));
    stats.reduced_keys = results.len();
    JobOutput { results, stats }
}

/// Groups a map task's output by key and applies the job's combiner.
fn combine_locally<M: MapReduce>(
    job: &M,
    pairs: Vec<(M::Key, M::Value)>,
) -> Vec<(M::Key, M::Value)> {
    let mut grouped: HashMap<M::Key, Vec<M::Value>> = HashMap::new();
    for (k, v) in pairs {
        grouped.entry(k).or_default().push(v);
    }
    let mut out = Vec::new();
    for (k, vs) in grouped {
        let mut combined = job.combine(&k, vs);
        // Move the key into the last pair; clone only for extras, so the
        // common one-output combiner never copies keys.
        let last = combined.pop();
        for v in combined {
            out.push((k.clone(), v));
        }
        if let Some(v) = last {
            out.push((k, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Word count with a sum combiner — the canonical job.
    struct WordCount;

    impl MapReduce for WordCount {
        type Input = String;
        type Key = String;
        type Value = u64;
        type Output = u64;

        fn map(&self, input: &String, emit: &mut dyn FnMut(String, u64)) {
            for word in input.split_whitespace() {
                emit(word.to_lowercase(), 1);
            }
        }

        fn reduce(&self, _key: &String, values: Vec<u64>) -> u64 {
            values.into_iter().sum()
        }

        fn combine(&self, _key: &String, values: Vec<u64>) -> Vec<u64> {
            vec![values.into_iter().sum()]
        }
    }

    fn corpus() -> Vec<String> {
        vec![
            "the quick brown fox".to_string(),
            "the lazy dog".to_string(),
            "the quick dog barks".to_string(),
        ]
    }

    fn count_of(results: &[(String, u64)], word: &str) -> u64 {
        results
            .iter()
            .find(|(k, _)| k == word)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    #[test]
    fn word_count_is_correct() {
        let out = run_job(&WordCount, corpus(), &JobConfig::default());
        assert_eq!(count_of(&out.results, "the"), 3);
        assert_eq!(count_of(&out.results, "quick"), 2);
        assert_eq!(count_of(&out.results, "fox"), 1);
        assert_eq!(out.stats.reduced_keys, out.results.len());
    }

    #[test]
    fn results_are_sorted_by_key() {
        let out = run_job(&WordCount, corpus(), &JobConfig::default());
        let keys: Vec<&String> = out.results.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn combiner_cuts_shuffle_traffic_without_changing_results() {
        let big: Vec<String> = (0..50).map(|_| "a a a b".to_string()).collect();
        let plain = run_job(&WordCount, big.clone(), &JobConfig::default());
        let combined = run_job(
            &WordCount,
            big,
            &JobConfig {
                use_combiner: true,
                ..JobConfig::default()
            },
        );
        assert_eq!(plain.results, combined.results);
        assert!(
            combined.stats.shuffled_pairs < plain.stats.shuffled_pairs,
            "combiner: {} < {}",
            combined.stats.shuffled_pairs,
            plain.stats.shuffled_pairs
        );
        assert_eq!(combined.stats.emitted_pairs, plain.stats.emitted_pairs);
    }

    #[test]
    fn multi_output_combiners_keep_emission_order_per_key() {
        // A combiner that emits several values must keep them grouped
        // with their key in emission order through the shuffle.
        struct Spread;
        impl MapReduce for Spread {
            type Input = u64;
            type Key = u64;
            type Value = u64;
            type Output = Vec<u64>;
            fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
                emit(input % 2, *input);
            }
            fn reduce(&self, _key: &u64, values: Vec<u64>) -> Vec<u64> {
                values
            }
            fn combine(&self, _key: &u64, values: Vec<u64>) -> Vec<u64> {
                // Emit min and max — two outputs per key.
                let min = *values.iter().min().unwrap();
                let max = *values.iter().max().unwrap();
                vec![min, max]
            }
        }
        let out = run_job(
            &Spread,
            vec![1, 2, 3, 4, 5, 6],
            &JobConfig {
                map_workers: 1,
                use_combiner: true,
                ..JobConfig::default()
            },
        );
        for (key, vals) in &out.results {
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            assert_eq!(vals, &sorted, "key {key}: min/max pairs survive");
            assert_eq!(vals.len() % 2, 0);
        }
    }

    #[test]
    fn failed_map_tasks_are_reexecuted_transparently() {
        let baseline = run_job(&WordCount, corpus(), &JobConfig::default());
        let faulty = run_job(
            &WordCount,
            corpus(),
            &JobConfig {
                fail_first_attempt_of: [0usize, 2].into_iter().collect(),
                ..JobConfig::default()
            },
        );
        assert_eq!(
            baseline.results, faulty.results,
            "results identical despite crashes"
        );
        assert_eq!(faulty.stats.map_failures, 2);
        assert_eq!(faulty.stats.map_attempts, baseline.stats.map_attempts + 2);
    }

    #[test]
    fn empty_input() {
        let out = run_job(&WordCount, vec![], &JobConfig::default());
        assert!(out.results.is_empty());
        assert_eq!(out.stats.emitted_pairs, 0);
    }

    #[test]
    fn single_worker_configuration() {
        let out = run_job(
            &WordCount,
            corpus(),
            &JobConfig {
                map_workers: 1,
                reduce_workers: 1,
                ..JobConfig::default()
            },
        );
        assert_eq!(count_of(&out.results, "the"), 3);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let a = run_job(
            &WordCount,
            corpus(),
            &JobConfig {
                map_workers: 2,
                reduce_workers: 3,
                ..JobConfig::default()
            },
        );
        let b = run_job(
            &WordCount,
            corpus(),
            &JobConfig {
                map_workers: 5,
                reduce_workers: 2,
                ..JobConfig::default()
            },
        );
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn recorded_metrics_are_deterministic_across_reruns() {
        let snapshot = || {
            let config = JobConfig {
                map_workers: 2,
                ..JobConfig::default()
            };
            let registry = obs::Registry::new();
            run_job(&WordCount, corpus(), &config)
                .stats
                .record_metrics(&registry);
            registry.snapshot()
        };
        // Byte-identical across reruns, whichever threads raced for
        // which split.
        let snap = snapshot();
        assert_eq!(snap.to_json(), snapshot().to_json());
        assert!(snap
            .metrics
            .iter()
            .any(|m| m.name == "mapreduce/partition/skew"));
    }

    #[test]
    fn trace_is_worker_count_invariant() {
        let tcfg = obs::trace::TraceConfig::default();
        let run = |map_workers: usize| {
            let config = JobConfig {
                map_workers,
                ..JobConfig::default()
            };
            run_job(&WordCount, corpus(), &config).stats
        };
        let (stats_a, stats_b) = (run(2), run(5));
        let trace_a = stats_a.trace(&tcfg);
        // Virtual time is pairs processed — a pure function of the
        // stats — so the export ignores how many workers raced.
        assert_eq!(
            trace_a.to_chrome_json(),
            stats_b.trace(&tcfg).to_chrome_json()
        );
        let phases: Vec<&str> = trace_a
            .events
            .iter()
            .filter(|e| e.kind == obs::trace::EventKind::Begin)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(phases, vec!["map", "shuffle", "reduce"]);
        assert_eq!(
            trace_a.makespan(),
            (stats_a.emitted_pairs + stats_a.shuffled_pairs + stats_a.reduced_keys) as u64
        );
        assert!(obs::trace::analyze::analyze(&trace_a).attribution_is_exact());
    }

    #[test]
    fn job_stats_report_bucket_sizes() {
        let out = run_job(&WordCount, corpus(), &JobConfig::default());
        assert_eq!(out.stats.bucket_pairs.len(), 4, "one per reduce worker");
        assert_eq!(
            out.stats.bucket_pairs.iter().sum::<usize>(),
            out.stats.shuffled_pairs
        );
    }

    #[test]
    #[should_panic(expected = "at least one map worker")]
    fn zero_map_workers_panics() {
        let _ = run_job(
            &WordCount,
            vec![],
            &JobConfig {
                map_workers: 0,
                ..JobConfig::default()
            },
        );
    }
}
