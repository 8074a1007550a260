//! The engine proper: chunked work queue, scoped workers, in-order
//! result assembly.

use std::ops::Range;

use crossbeam::channel;
use stats::rng::{StreamSeeder, Xoshiro256};

/// Replicates handed to a worker per queue message. Small enough that a
/// straggler replicate cannot serialise the tail of a batch, large
/// enough to amortise channel traffic. Chunking affects only *when* a
/// replicate runs, never *what* it computes, so any chunk size yields
/// the same batch.
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
    chunk: usize,
}

impl ReplicationEngine {
    /// An engine running on up to `threads` worker threads (0 is treated
    /// as 1; 1 runs inline without spawning).
    pub fn new(threads: usize) -> Self {
        ReplicationEngine {
            threads: threads.max(1),
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Overrides the work-queue chunk size (clamped to ≥ 1).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The chunk layout this engine gives a batch of `replicates`.
    pub fn shape(&self, replicates: usize) -> BatchShape {
        BatchShape {
            replicates,
            chunk: self.chunk,
        }
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
    /// work queue is the same as [`run`](Self::run), but each dequeued
    /// chunk is handed to `chunk_body` whole, as a slice of
    /// [`ReplicateCtx`]s, together with a per-worker scratch value
    /// built once by `init` and reused across every chunk that worker
    /// processes. This is the batch-major entry point: a chunk body can
    /// lay its replicates out in structure-of-arrays form and advance
    /// them in lockstep, with all intermediates living in the scratch
    /// arena so steady-state chunks allocate nothing.
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
        let ctx = |index: usize| ReplicateCtx {
            index,
            seed: seeder.split_seed(index as u64),
        };
        let run_chunk = |scratch: &mut S, ctxs: &mut Vec<ReplicateCtx>, range: Range<usize>| {
            ctxs.clear();
            ctxs.extend(range.clone().map(&ctx));
            let values = chunk_body(scratch, ctxs.as_slice());
            assert_eq!(
                values.len(),
                range.len(),
                "chunk body must return one value per replicate"
            );
            values
        };
        if self.threads <= 1 || replicates <= 1 {
            let mut scratch = init();
            let mut ctxs = Vec::with_capacity(self.chunk);
            let mut out = Vec::with_capacity(replicates);
            for range in self.shape(replicates).chunks() {
                out.extend(run_chunk(&mut scratch, &mut ctxs, range));
            }
            return out;
        }

        // Enqueue every chunk up front (the channel is unbounded), then
        // let workers drain the queue; disconnection is the turnstile.
        let (chunk_tx, chunk_rx) = channel::unbounded::<Range<usize>>();
        for range in self.shape(replicates).chunks() {
            chunk_tx.send(range).expect("queue is open");
        }
        drop(chunk_tx);

        let (result_tx, result_rx) = channel::unbounded::<(usize, Vec<T>)>();
        let mut slots: Vec<Option<T>> = (0..replicates).map(|_| None).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(replicates) {
                let chunk_rx = chunk_rx.clone();
                let result_tx = result_tx.clone();
                let init = &init;
                let run_chunk = &run_chunk;
                scope.spawn(move || {
                    let mut scratch = init();
                    let mut ctxs = Vec::with_capacity(self.chunk);
                    while let Ok(range) = chunk_rx.recv() {
                        let base = range.start;
                        let values = run_chunk(&mut scratch, &mut ctxs, range);
                        if result_tx.send((base, values)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(result_tx);
            drop(chunk_rx);
            for (base, values) in &result_rx {
                for (offset, value) in values.into_iter().enumerate() {
                    slots[base + offset] = Some(value);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every chunk completes"))
            .collect()
    }
}

/// The chunk layout of one batch: `replicates` replicates cut into
/// work-queue chunks of the engine's chunk width, the last one possibly
/// narrower. It is a pure function of the replicate count and the
/// chunk width — never of the thread count or of which worker took
/// which chunk — so everything derived from it here is byte-identical
/// for every thread count, like the batch itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchShape {
    replicates: usize,
    chunk: usize,
}

impl BatchShape {
    /// The replicate range of each chunk, in queue order.
    fn chunks(self) -> impl Iterator<Item = Range<usize>> {
        (0..self.replicates)
            .step_by(self.chunk)
            .map(move |start| start..(start + self.chunk).min(self.replicates))
    }

    /// Records the batch's virtual counters into `registry`:
    /// `replicate/chunks_dispatched` and
    /// `replicate/replicates_completed`.
    pub fn record_metrics(&self, registry: &obs::Registry) {
        registry
            .counter("replicate/chunks_dispatched", obs::Domain::Virtual)
            .add(self.replicates.div_ceil(self.chunk) as u64);
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

    #[test]
    fn results_come_back_in_replicate_order() {
        let out = ReplicationEngine::new(4)
            .with_chunk(3)
            .run(97, 7, replicate_body);
        assert_eq!(out.len(), 97);
        for (i, (index, _, _)) in out.iter().enumerate() {
            assert_eq!(*index, i);
        }
    }

    #[test]
    fn batch_is_bit_identical_across_thread_counts_and_chunk_sizes() {
        let reference = ReplicationEngine::new(1).run(200, 42, replicate_body);
        for threads in [2, 4, 8] {
            for chunk in [1, 5, 16, 64, 1024] {
                let got =
                    ReplicationEngine::new(threads)
                        .with_chunk(chunk)
                        .run(200, 42, replicate_body);
                assert_eq!(reference, got, "threads={threads} chunk={chunk}");
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
        assert_eq!(engine.threads(), 1);
        let out: Vec<u64> = engine.run(0, 5, |ctx| ctx.seed);
        assert!(out.is_empty());
        let one: Vec<usize> = ReplicationEngine::new(8).run(1, 5, |ctx| ctx.index);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn batch_shape_tiles_the_batch_and_counts_it() {
        let shape = ReplicationEngine::new(4).with_chunk(8).shape(100);
        let chunks: Vec<_> = shape.chunks().collect();
        assert_eq!(chunks.len(), 13);
        assert_eq!(chunks[0], 0..8);
        assert_eq!(chunks[12], 96..100, "the tail chunk is narrower");
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
                ("replicate/chunks_dispatched".to_string(), 13),
                ("replicate/replicates_completed".to_string(), 100),
            ]
        );
    }

    #[test]
    fn batch_shape_trace_spans_each_chunk_in_replicate_index_time() {
        // 100 replicates in chunks of 8 → 13 chunk spans, last counter
        // sample reads 100 completed at virtual time 100.
        let trace = ReplicationEngine::new(4)
            .with_chunk(8)
            .shape(100)
            .trace(&obs::trace::TraceConfig::default());
        let chunks = trace
            .events
            .iter()
            .filter(|e| e.kind == obs::trace::EventKind::Begin)
            .count();
        assert_eq!(chunks, 13);
        assert_eq!(trace.makespan(), 100);
        let analysis = obs::trace::analyze::analyze(&trace);
        assert!(analysis.attribution_is_exact());
        let completed = analysis
            .counters
            .iter()
            .find(|c| c.key == "chunk/completed")
            .expect("completed counter");
        assert_eq!(completed.samples, 13);
        assert_eq!(completed.last, 100);
    }

    #[test]
    fn run_chunked_equals_run_for_any_threads_and_chunks() {
        let reference = ReplicationEngine::new(1).run(97, 7, replicate_body);
        for threads in [1, 2, 4, 8] {
            for chunk in [1, 3, 16, 200] {
                let got = ReplicationEngine::new(threads)
                    .with_chunk(chunk)
                    .run_chunked(
                        97,
                        7,
                        // A stateful per-worker scratch: growth across chunks
                        // must never leak into results.
                        Vec::<usize>::new,
                        |scratch, ctxs| {
                            scratch.push(ctxs.len());
                            ctxs.iter().map(replicate_body).collect()
                        },
                    );
                assert_eq!(reference, got, "threads={threads} chunk={chunk}");
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
        let out = ReplicationEngine::new(2)
            .with_chunk(7)
            .run(23, 3, |ctx| ctx.index * 2);
        assert_eq!(out, (0..23).map(|i| i * 2).collect::<Vec<_>>());
    }
}
