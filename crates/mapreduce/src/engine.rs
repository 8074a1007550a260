//! The execution engine: map tasks → partition → shuffle and reduce
//! tasks, with failure re-execution.
//!
//! [`JobConfig`] fixes the task layout — M map tasks over input splits
//! and R reduce tasks over hash partitions — as the MapReduce paper
//! fixes its tasks apart from the machines that run them. The engine
//! runs every task in task order on the calling thread and starts no
//! thread, so a caller that wants parallelism runs whole jobs side by
//! side. A map task maps its split and runs the combiner on the output,
//! on the map worker as in the paper; a reduce task groups, sorts and
//! reduces one bucket.
//!
//! Input splits are moved through the pipeline, never cloned. A reduce
//! task groups its bucket through a `HashMap` (O(1) per pair) and sorts
//! the distinct keys once, instead of paying an ordered-map's O(log k)
//! comparisons on every inserted pair.

use std::collections::{HashMap, HashSet};

use crate::partition::{bucket_of, partition_skew, split_inputs};
use crate::MapReduce;

/// Engine configuration.
///
/// `map_workers` and `reduce_workers` set the task layout, which fixes
/// the splits, the buckets and so every counter in [`JobStats`].
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Map workers in the task layout: the input is cut into
    /// `2 × map_workers` splits, one map task each.
    pub map_workers: usize,
    /// Reduce partitions: intermediate keys hash into this many
    /// buckets, one reduce task each.
    pub reduce_workers: usize,
    /// Whether each map task runs the job's combiner on its output.
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
    /// these depends on the number of map tasks, so the export is
    /// byte-identical for any `map_workers` setting.
    pub fn trace(&self, tcfg: &obs::trace::TraceConfig) -> obs::trace::Trace {
        use obs::trace::category;
        let mut rec = obs::trace::TraceRecorder::new(tcfg);
        let lane = rec.lane("engine");
        let buf = rec.buf(lane);
        let map_end = self.emitted_pairs as u64;
        let shuffle_end = map_end + self.shuffled_pairs as u64;
        let reduce_end = shuffle_end + self.reduced_keys as u64;
        // Span payloads use pair/key counts only: map_attempts counts the
        // tasks `map_workers` lays out and so would break its invariance.
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

/// Runs `job` over `inputs` with `config`, every task on the calling
/// thread.
///
/// # Panics
/// Panics if either worker count is zero. A panic in the job's `map`,
/// `combine` or `reduce` reaches the caller with its own payload.
pub fn run_job<M: MapReduce>(
    job: &M,
    inputs: Vec<M::Input>,
    config: &JobConfig,
) -> JobOutput<M::Key, M::Output> {
    assert!(config.map_workers > 0, "need at least one map worker");
    assert!(config.reduce_workers > 0, "need at least one reduce worker");

    // ---- Map phase: one task per input split, partitioned in task
    // order. ----
    let mut stats = JobStats::default();
    let mut buckets: Vec<Vec<(M::Key, M::Value)>> =
        (0..config.reduce_workers).map(|_| Vec::new()).collect();
    let splits = split_inputs(inputs, config.map_workers * 2);
    for (task_id, split) in splits.into_iter().enumerate() {
        for (k, v) in map_task(job, config, task_id, &split, &mut stats) {
            let b = bucket_of(&k, config.reduce_workers);
            buckets[b].push((k, v));
        }
    }
    stats.bucket_pairs = buckets.iter().map(Vec::len).collect();

    // ---- Shuffle and reduce phase: one task per bucket. ----
    let mut results: Vec<(M::Key, M::Output)> = buckets
        .into_iter()
        .flat_map(|bucket| reduce_task(job, bucket))
        .collect();
    results.sort_by(|a, b| a.0.cmp(&b.0));
    stats.reduced_keys = results.len();
    JobOutput { results, stats }
}

/// The map-task body: maps one split, then runs the combiner on the
/// output, counting both into `stats`. A task whose first attempt is
/// set to fail does the work, loses it and runs again.
fn map_task<M: MapReduce>(
    job: &M,
    config: &JobConfig,
    task_id: usize,
    split: &[M::Input],
    stats: &mut JobStats,
) -> Vec<(M::Key, M::Value)> {
    let map_split = || {
        let mut pairs = Vec::new();
        for input in split {
            job.map(input, &mut |k, v| pairs.push((k, v)));
        }
        pairs
    };
    if config.fail_first_attempt_of.contains(&task_id) {
        drop(map_split());
        stats.map_attempts += 1;
        stats.map_failures += 1;
    }
    let pairs = map_split();
    stats.map_attempts += 1;
    stats.emitted_pairs += pairs.len();
    let pairs = if config.use_combiner {
        combine_locally(job, pairs)
    } else {
        pairs
    };
    stats.shuffled_pairs += pairs.len();
    pairs
}

/// The reduce-task body: groups one bucket's pairs by key, sorts the
/// distinct keys once and reduces each, in ascending key order.
fn reduce_task<M: MapReduce>(job: &M, bucket: Vec<(M::Key, M::Value)>) -> Vec<(M::Key, M::Output)> {
    let mut groups: HashMap<M::Key, Vec<M::Value>> = HashMap::new();
    for (k, v) in bucket {
        groups.entry(k).or_default().push(v);
    }
    let mut groups: Vec<(M::Key, Vec<M::Value>)> = groups.into_iter().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    groups
        .into_iter()
        .map(|(key, values)| {
            let out = job.reduce(&key, values);
            (key, out)
        })
        .collect()
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
        // Byte-identical across reruns.
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
        // stats — so the export ignores how many map tasks ran.
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

    /// A job whose `map` (or, with `in_reduce`, `reduce`) panics on one
    /// input of forty.
    struct Explodes {
        in_reduce: bool,
    }

    impl MapReduce for Explodes {
        type Input = u64;
        type Key = u64;
        type Value = u64;
        type Output = u64;

        fn map(&self, input: &u64, emit: &mut dyn FnMut(u64, u64)) {
            assert!(self.in_reduce || *input != 17, "map exploded");
            emit(*input, 1);
        }

        fn reduce(&self, key: &u64, values: Vec<u64>) -> u64 {
            assert!(!self.in_reduce || *key != 17, "reduce exploded");
            values.into_iter().sum()
        }
    }

    #[test]
    #[should_panic(expected = "map exploded")]
    fn a_panicking_map_reaches_the_caller() {
        let explodes = Explodes { in_reduce: false };
        run_job(&explodes, (0..40).collect(), &JobConfig::default());
    }

    #[test]
    #[should_panic(expected = "reduce exploded")]
    fn a_panicking_reduce_reaches_the_caller() {
        let explodes = Explodes { in_reduce: true };
        run_job(&explodes, (0..40).collect(), &JobConfig::default());
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
