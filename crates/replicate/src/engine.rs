//! The engine proper: fixed replicate chunks over the task-order pool
//! ([`stats::pool`]), in-order result assembly.

use std::ops::Range;

use stats::rng::{StreamSeeder, Xoshiro256};

/// Replicates in one chunk, the unit a worker takes. Small enough that
/// a straggler replicate cannot serialise the tail of a batch, large
/// enough to amortise taking a chunk and to fill the batched kernels'
/// lanes. Chunking affects only *when* a replicate runs, never *what*
/// it computes.
pub const DEFAULT_CHUNK: usize = 16;

/// Everything a replicate closure may depend on: its index and its
/// seed-split RNG stream. Closures must derive all randomness from
/// here — that is what makes the batch thread-count invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicateCtx {
    /// Position of this replicate in the batch (0-based).
    pub index: usize,
    /// The replicate's derived seed: `StreamSeeder::new(master).split_seed(index)`.
    pub seed: u64,
}

impl ReplicateCtx {
    /// The replicate's primary RNG stream.
    pub fn rng(&self) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(self.seed)
    }

    /// An independent sub-stream `k` of this replicate, for replicate
    /// bodies that need several collision-free generators (e.g. one per
    /// resampling battery).
    pub fn stream(&self, k: u64) -> Xoshiro256 {
        StreamSeeder::new(self.seed).stream(k)
    }

    /// The seed of sub-stream `k` (for APIs that take a seed, like the
    /// `stats::resample` procedures).
    pub fn stream_seed(&self, k: u64) -> u64 {
        StreamSeeder::new(self.seed).split_seed(k)
    }
}

/// Fans replicate batches out across OS threads; see the crate docs for
/// the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationEngine {
    threads: usize,
}

impl ReplicationEngine {
    /// An engine running on up to `threads` worker threads (0 and 1 run
    /// inline on the calling thread).
    pub fn new(threads: usize) -> Self {
        ReplicationEngine { threads }
    }

    /// The chunk layout this engine gives a batch of `replicates`.
    pub fn shape(&self, replicates: usize) -> BatchShape {
        BatchShape { replicates }
    }

    /// Runs `replicates` instances of `body`, replicate `i` seeing only
    /// its [`ReplicateCtx`] (index `i`, seed split from `master_seed`),
    /// and returns the results in replicate order.
    pub fn run<T, F>(&self, replicates: usize, master_seed: u64, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&ReplicateCtx) -> T + Sync,
    {
        self.run_chunked(
            replicates,
            master_seed,
            || (),
            |_scratch, ctxs| ctxs.iter().map(&body).collect(),
        )
    }

    /// Runs `replicates` replicates with a **chunk-granular** body: the
    /// chunks are the same as [`run`](Self::run)'s, but each chunk is
    /// handed to `chunk_body` whole, as a slice of [`ReplicateCtx`]s,
    /// together with a per-worker scratch value built once by `init`
    /// and reused across every chunk that worker processes. This is
    /// the batch-major entry point: a chunk body can lay its replicates
    /// out in structure-of-arrays form and advance them in lockstep,
    /// with all intermediates living in the scratch arena so
    /// steady-state chunks allocate nothing.
    ///
    /// The determinism contract is unchanged — value `i` must be a pure
    /// function of `ctxs[i]` alone (chunk boundaries are a pure
    /// function of the batch shape, but lockstep grouping inside a
    /// chunk must not let lanes influence one another) — and
    /// `chunk_body` must return exactly one value per context, in
    /// order.
    pub fn run_chunked<S, T, I, F>(
        &self,
        replicates: usize,
        master_seed: u64,
        init: I,
        chunk_body: F,
    ) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &[ReplicateCtx]) -> Vec<T> + Sync,
    {
        let seeder = StreamSeeder::new(master_seed);
        let chunks: Vec<Range<usize>> = self.shape(replicates).chunks().collect();
        let per_chunk = stats::pool::run_indexed(
            chunks.len(),
            self.threads,
            || (init(), Vec::with_capacity(DEFAULT_CHUNK)),
            |(scratch, ctxs), k| {
                let range = chunks[k].clone();
                ctxs.clear();
                ctxs.extend(range.clone().map(|index| ReplicateCtx {
                    index,
                    seed: seeder.split_seed(index as u64),
                }));
                let values = chunk_body(scratch, ctxs);
                assert_eq!(
                    values.len(),
                    range.len(),
                    "chunk body must return one value per replicate"
                );
                values
            },
        );
        per_chunk.into_iter().flatten().collect()
    }
}

/// The chunk layout of one batch: `replicates` replicates cut into
/// chunks of [`DEFAULT_CHUNK`], the last one possibly narrower. It is a
/// pure function of the replicate count — never of the thread count or
/// of which worker took which chunk — so everything derived from it
/// here is byte-identical for every thread count, like the batch
/// itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchShape {
    replicates: usize,
}

impl BatchShape {
    /// The replicate range of each chunk, in replicate order.
    fn chunks(self) -> impl Iterator<Item = Range<usize>> {
        (0..self.replicates)
            .step_by(DEFAULT_CHUNK)
            .map(move |start| start..(start + DEFAULT_CHUNK).min(self.replicates))
    }

    /// Records the batch's virtual counters into `registry`:
    /// `replicate/chunks_dispatched` and
    /// `replicate/replicates_completed`.
    pub fn record_metrics(&self, registry: &obs::Registry) {
        registry
            .counter("replicate/chunks_dispatched", obs::Domain::Virtual)
            .add(self.replicates.div_ceil(DEFAULT_CHUNK) as u64);
        registry
            .counter("replicate/replicates_completed", obs::Domain::Virtual)
            .add(self.replicates as u64);
    }

    /// The batch's chunk-lifecycle trace. Its virtual clock is the
    /// **replicate index**: chunk `k` covering replicates `start..end`
    /// is a span from `start` to `end` on the `chunks` lane, with a
    /// running `completed` counter sample at each chunk boundary.
    pub fn trace(&self, tcfg: &obs::trace::TraceConfig) -> obs::trace::Trace {
        use obs::trace::category;
        let mut rec = obs::trace::TraceRecorder::new(tcfg);
        let lane = rec.lane("chunks");
        let buf = rec.buf(lane);
        for (chunk_no, range) in self.chunks().enumerate() {
            let (start, end) = (range.start as u64, range.end as u64);
            buf.begin(
                start,
                format!("chunk/{chunk_no}"),
                category::CHUNK,
                end - start,
            );
            buf.counter(end, "completed", category::CHUNK, end);
            buf.end(end);
        }
        rec.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replicate_body(ctx: &ReplicateCtx) -> (usize, u64, f64) {
        let mut rng = ctx.rng();
        let draws: u64 = (0..50).map(|_| rng.next_u64() >> 48).sum();
        let mut sub = ctx.stream(3);
        (ctx.index, draws, sub.next_f64())
    }

    /// Batch sizes covering an empty batch, one chunk, an exact
    /// multiple of the chunk, a narrow tail and more chunks than
    /// threads.
    const BATCH_SIZES: [usize; 6] = [0, 1, 16, 17, 97, 200];

    #[test]
    fn results_come_back_in_replicate_order() {
        let out = ReplicationEngine::new(4).run(97, 7, replicate_body);
        assert_eq!(out.len(), 97);
        for (i, (index, _, _)) in out.iter().enumerate() {
            assert_eq!(*index, i);
        }
    }

    #[test]
    fn batch_is_bit_identical_across_thread_counts_and_batch_sizes() {
        for replicates in BATCH_SIZES {
            let reference = ReplicationEngine::new(1).run(replicates, 42, replicate_body);
            assert_eq!(reference.len(), replicates);
            for threads in [0, 2, 4, 8] {
                let got = ReplicationEngine::new(threads).run(replicates, 42, replicate_body);
                assert_eq!(reference, got, "threads={threads} replicates={replicates}");
            }
        }
    }

    #[test]
    fn different_master_seeds_give_different_batches() {
        let a = ReplicationEngine::new(2).run(10, 1, replicate_body);
        let b = ReplicationEngine::new(2).run(10, 2, replicate_body);
        assert_ne!(a, b);
    }

    #[test]
    fn replicate_seeds_are_the_seeders_split_seeds() {
        let seeds = ReplicationEngine::new(3).run(20, 99, |ctx| ctx.seed);
        let seeder = StreamSeeder::new(99);
        for (i, seed) in seeds.iter().enumerate() {
            assert_eq!(*seed, seeder.split_seed(i as u64));
        }
    }

    #[test]
    fn sub_streams_differ_from_the_primary_stream() {
        let ctx = ReplicateCtx {
            index: 0,
            seed: 1234,
        };
        let mut primary = ctx.rng();
        let mut sub = ctx.stream(0);
        assert_ne!(primary.next_u64(), sub.next_u64());
        assert_ne!(ctx.stream_seed(1), ctx.stream_seed(2));
    }

    #[test]
    fn zero_threads_and_empty_batches_are_fine() {
        let engine = ReplicationEngine::new(0);
        let out: Vec<u64> = engine.run(0, 5, |ctx| ctx.seed);
        assert!(out.is_empty());
        let one: Vec<usize> = ReplicationEngine::new(8).run(1, 5, |ctx| ctx.index);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn batch_shape_tiles_the_batch_and_counts_it() {
        let shape = ReplicationEngine::new(4).shape(100);
        let chunks: Vec<_> = shape.chunks().collect();
        assert_eq!(chunks.len(), 7);
        assert_eq!(chunks[0], 0..16);
        assert_eq!(chunks[6], 96..100, "the tail chunk is narrower");
        assert!(chunks.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(ReplicationEngine::new(1).shape(0).chunks().count(), 0);

        let registry = obs::Registry::new();
        shape.record_metrics(&registry);
        let counters: Vec<(String, u64)> = registry
            .snapshot()
            .metrics
            .into_iter()
            .map(|m| match m.data {
                obs::MetricData::Counter { value } => (m.name, value),
                other => panic!("expected counter, got {other:?}"),
            })
            .collect();
        assert_eq!(
            counters,
            [
                ("replicate/chunks_dispatched".to_string(), 7),
                ("replicate/replicates_completed".to_string(), 100),
            ]
        );
    }

    #[test]
    fn batch_shape_trace_spans_each_chunk_in_replicate_index_time() {
        // 100 replicates in chunks of 16 → 7 chunk spans, last counter
        // sample reads 100 completed at virtual time 100.
        let trace = ReplicationEngine::new(4)
            .shape(100)
            .trace(&obs::trace::TraceConfig::default());
        let chunks = trace
            .events
            .iter()
            .filter(|e| e.kind == obs::trace::EventKind::Begin)
            .count();
        assert_eq!(chunks, 7);
        assert_eq!(trace.makespan(), 100);
        let analysis = obs::trace::analyze::analyze(&trace);
        assert!(analysis.attribution_is_exact());
        let completed = analysis
            .counters
            .iter()
            .find(|c| c.key == "chunk/completed")
            .expect("completed counter");
        assert_eq!(completed.samples, 7);
        assert_eq!(completed.last, 100);
    }

    #[test]
    fn run_chunked_equals_run_for_any_threads_and_batch_sizes() {
        for replicates in BATCH_SIZES {
            let reference = ReplicationEngine::new(1).run(replicates, 7, replicate_body);
            for threads in [1, 2, 4, 8] {
                let got = ReplicationEngine::new(threads).run_chunked(
                    replicates,
                    7,
                    // A stateful per-worker scratch: growth across chunks
                    // must never leak into results.
                    Vec::<usize>::new,
                    |scratch, ctxs| {
                        scratch.push(ctxs.len());
                        ctxs.iter().map(replicate_body).collect()
                    },
                );
                assert_eq!(reference, got, "threads={threads} replicates={replicates}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one value per replicate")]
    fn run_chunked_rejects_short_chunk_results() {
        let _ = ReplicationEngine::new(1).run_chunked(
            10,
            3,
            || (),
            |_, ctxs| ctxs.iter().skip(1).map(|c| c.index).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn uneven_tail_chunk_is_processed() {
        let out = ReplicationEngine::new(2).run(23, 3, |ctx| ctx.index * 2);
        assert_eq!(out, (0..23).map(|i| i * 2).collect::<Vec<_>>());
    }
}
