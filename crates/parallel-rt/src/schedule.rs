//! Loop scheduling policies: OpenMP's `schedule(static|dynamic|guided,
//! chunk)` clause.
//!
//! Assignment 3's "Scheduling of Parallel Loops" patternlet has students
//! map threads to iterations "in chunks of size one, two, and three" and
//! observe the assignment; the pure functions here compute exactly those
//! assignments, and the runtime executes them.

use std::ops::Range;

/// A loop scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Iterations divided into contiguous equal blocks, one per thread
    /// (OpenMP's default `schedule(static)`).
    StaticBlock,
    /// Round-robin chunks of the given size (`schedule(static, chunk)`).
    StaticChunk(usize),
    /// Threads grab the next chunk when free (`schedule(dynamic, chunk)`).
    Dynamic(usize),
    /// Chunks shrink as the loop drains: each grab takes
    /// `remaining / (2 * nthreads)` clamped below by the given minimum
    /// (`schedule(guided, min)`).
    Guided(usize),
}

impl Schedule {
    /// Stable lowercase policy name, used to key per-policy metrics
    /// (`parallel_rt/chunks/<label>`).
    pub fn label(&self) -> &'static str {
        match self {
            Schedule::StaticBlock => "static_block",
            Schedule::StaticChunk(_) => "static_chunk",
            Schedule::Dynamic(_) => "dynamic",
            Schedule::Guided(_) => "guided",
        }
    }

    /// The chunk-size parameter, if the policy has one.
    pub fn chunk(&self) -> Option<usize> {
        match self {
            Schedule::StaticBlock => None,
            Schedule::StaticChunk(c) | Schedule::Dynamic(c) | Schedule::Guided(c) => Some(*c),
        }
    }

    /// Validates the policy for execution.
    ///
    /// # Panics
    /// Panics on a zero chunk size.
    pub fn validate(&self) {
        if let Some(0) = self.chunk() {
            panic!("chunk size must be positive");
        }
    }
}

/// The iterations `thread` executes under `schedule(static)` (block
/// decomposition): the first `n % t` threads get one extra iteration.
pub fn static_block(range: Range<usize>, nthreads: usize, thread: usize) -> Range<usize> {
    assert!(nthreads > 0 && thread < nthreads);
    let n = range.len();
    let base = n / nthreads;
    let extra = n % nthreads;
    let start = range.start + thread * base + thread.min(extra);
    let len = base + usize::from(thread < extra);
    start..start + len
}

/// The chunks `thread` executes under `schedule(static, chunk)`:
/// round-robin chunks of fixed size.
pub fn static_chunks(
    range: Range<usize>,
    nthreads: usize,
    thread: usize,
    chunk: usize,
) -> Vec<Range<usize>> {
    static_chunk_iter(range, nthreads, thread, chunk).collect()
}

/// [`static_chunks`] one chunk at a time.
pub(crate) fn static_chunk_iter(
    range: Range<usize>,
    nthreads: usize,
    thread: usize,
    chunk: usize,
) -> impl Iterator<Item = Range<usize>> {
    assert!(nthreads > 0 && thread < nthreads && chunk > 0);
    let end = range.end;
    (range.start + thread * chunk..end)
        .step_by(nthreads * chunk)
        .map(move |start| start..(start + chunk).min(end))
}

/// Every chunk a guided schedule with `nthreads` threads and minimum
/// chunk `min_chunk` produces, in grab order.
pub fn guided_chunks(range: Range<usize>, nthreads: usize, min_chunk: usize) -> Vec<Range<usize>> {
    guided_chunk_iter(range, nthreads, min_chunk).collect()
}

/// [`guided_chunks`] one chunk at a time.
pub(crate) fn guided_chunk_iter(
    range: Range<usize>,
    nthreads: usize,
    min_chunk: usize,
) -> impl Iterator<Item = Range<usize>> {
    assert!(nthreads > 0 && min_chunk > 0);
    let Range { mut start, end } = range;
    std::iter::from_fn(move || {
        if start >= end {
            return None;
        }
        let remaining = end - start;
        let size = (remaining / (2 * nthreads)).max(min_chunk).min(remaining);
        start += size;
        Some(start - size..start)
    })
}

/// A work-sharing iterator handing out chunks of an index range to
/// however many threads poll it. Thread-safe via an atomic cursor for
/// the fixed-size policies and a small mutex for guided.
#[derive(Debug)]
pub struct ChunkDispenser {
    range: Range<usize>,
    nthreads: usize,
    schedule: Schedule,
    cursor: std::sync::atomic::AtomicUsize,
    guided: parking_lot::Mutex<usize>,
    /// Observability hook: records the size of every chunk handed out.
    chunk_sizes: Option<obs::Histogram>,
}

impl ChunkDispenser {
    /// Creates a dispenser over `range` for a team of `nthreads`.
    pub fn new(range: Range<usize>, nthreads: usize, schedule: Schedule) -> Self {
        assert!(nthreads > 0, "need at least one thread");
        schedule.validate();
        ChunkDispenser {
            cursor: std::sync::atomic::AtomicUsize::new(range.start),
            guided: parking_lot::Mutex::new(range.start),
            range,
            nthreads,
            schedule,
            chunk_sizes: None,
        }
    }

    /// Attaches a histogram that records the length of every chunk this
    /// dispenser hands out. The multiset of chunk sizes is a function of
    /// the range and policy alone (dynamic grabs race for *which thread*
    /// gets a chunk, never for its size; guided sizes are serialised
    /// under the cursor lock), so the recorded distribution is
    /// invariant across thread counts and grab interleavings.
    pub fn instrument(&mut self, histogram: obs::Histogram) {
        self.chunk_sizes = Some(histogram);
    }

    fn observe(&self, chunk: &Range<usize>) {
        if let Some(h) = &self.chunk_sizes {
            h.record(chunk.len() as u64);
        }
    }

    /// All chunks for `thread` under a static policy, computed without
    /// synchronisation (static schedules are deterministic by design).
    pub fn static_assignment(&self, thread: usize) -> Vec<Range<usize>> {
        let chunks = match self.schedule {
            Schedule::StaticBlock => {
                let r = static_block(self.range.clone(), self.nthreads, thread);
                if r.is_empty() {
                    vec![]
                } else {
                    vec![r]
                }
            }
            Schedule::StaticChunk(c) => static_chunks(self.range.clone(), self.nthreads, thread, c),
            _ => panic!("static_assignment on a dynamic policy"),
        };
        for chunk in &chunks {
            self.observe(chunk);
        }
        chunks
    }

    /// Grabs the next chunk under a dynamic/guided policy; `None` when
    /// the loop is drained.
    pub fn next_chunk(&self) -> Option<Range<usize>> {
        use std::sync::atomic::Ordering;
        match self.schedule {
            Schedule::Dynamic(chunk) => {
                let start = self.cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= self.range.end {
                    None
                } else {
                    Some(start..(start + chunk).min(self.range.end))
                }
            }
            Schedule::Guided(min_chunk) => {
                let mut cursor = self.guided.lock();
                if *cursor >= self.range.end {
                    return None;
                }
                let remaining = self.range.end - *cursor;
                let size = (remaining / (2 * self.nthreads))
                    .max(min_chunk)
                    .min(remaining);
                let start = *cursor;
                *cursor += size;
                Some(start..start + size)
            }
            _ => panic!("next_chunk on a static policy"),
        }
        .inspect(|chunk| self.observe(chunk))
    }

    /// Whether this policy hands out chunks dynamically.
    pub fn is_dynamic(&self) -> bool {
        matches!(self.schedule, Schedule::Dynamic(_) | Schedule::Guided(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_block_splits_evenly() {
        // 12 iterations over 4 threads: 3 each, contiguous.
        let parts: Vec<_> = (0..4).map(|t| static_block(0..12, 4, t)).collect();
        assert_eq!(parts, vec![0..3, 3..6, 6..9, 9..12]);
    }

    #[test]
    fn static_block_distributes_remainder_to_leading_threads() {
        // 10 over 4: 3,3,2,2.
        let parts: Vec<_> = (0..4).map(|t| static_block(0..10, 4, t)).collect();
        assert_eq!(parts, vec![0..3, 3..6, 6..8, 8..10]);
    }

    #[test]
    fn static_block_covers_range_exactly() {
        for n in [0usize, 1, 5, 17, 100] {
            for t in [1usize, 2, 3, 4, 7] {
                let mut all: Vec<usize> = Vec::new();
                for th in 0..t {
                    all.extend(static_block(0..n, t, th));
                }
                all.sort_unstable();
                assert_eq!(all, (0..n).collect::<Vec<_>>(), "n={n} t={t}");
            }
        }
    }

    #[test]
    fn static_chunks_round_robin() {
        // The patternlet's chunk-of-1 deal: thread t gets t, t+n, t+2n…
        let c = static_chunks(0..8, 4, 1, 1);
        assert_eq!(c, vec![1..2, 5..6]);
        // Chunk of 3, 2 threads, 10 iterations.
        let c = static_chunks(0..10, 2, 0, 3);
        assert_eq!(c, vec![0..3, 6..9]);
        let c = static_chunks(0..10, 2, 1, 3);
        assert_eq!(c, vec![3..6, 9..10]);
    }

    #[test]
    fn static_chunks_partition_for_chunks_1_2_3() {
        // Assignment 3 asks for chunk sizes one, two, and three.
        for chunk in [1usize, 2, 3] {
            let mut all: Vec<usize> = Vec::new();
            for t in 0..4 {
                for r in static_chunks(0..16, 4, t, chunk) {
                    all.extend(r);
                }
            }
            all.sort_unstable();
            assert_eq!(all, (0..16).collect::<Vec<_>>(), "chunk={chunk}");
        }
    }

    #[test]
    fn guided_chunks_shrink() {
        let chunks = guided_chunks(0..100, 4, 2);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        // First grab: 100/8 = 12; they shrink toward the minimum.
        assert_eq!(sizes[0], 12);
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        // Every chunk honours the minimum except possibly the final
        // remainder chunk.
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s >= 2));
        assert!(*sizes.last().unwrap() <= 2);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 100);
    }

    #[test]
    fn dispenser_dynamic_hands_out_everything_once() {
        let d = ChunkDispenser::new(0..23, 4, Schedule::Dynamic(5));
        let mut all = Vec::new();
        while let Some(c) = d.next_chunk() {
            all.extend(c);
        }
        assert_eq!(all, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn dispenser_dynamic_is_safe_under_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let d = ChunkDispenser::new(0..1000, 4, Schedule::Dynamic(7));
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(c) = d.next_chunk() {
                        total.fetch_add(c.len(), Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn dispenser_guided_drains_exactly() {
        let d = ChunkDispenser::new(0..57, 3, Schedule::Guided(4));
        let mut all = Vec::new();
        while let Some(c) = d.next_chunk() {
            all.extend(c);
        }
        assert_eq!(all, (0..57).collect::<Vec<_>>());
        assert!(d.is_dynamic());
    }

    #[test]
    fn dispenser_static_assignment_matches_pure_functions() {
        let d = ChunkDispenser::new(0..10, 4, Schedule::StaticBlock);
        assert_eq!(d.static_assignment(0), vec![0..3]);
        assert!(!d.is_dynamic());
        let d = ChunkDispenser::new(0..10, 4, Schedule::StaticChunk(2));
        assert_eq!(d.static_assignment(1), static_chunks(0..10, 4, 1, 2));
    }

    #[test]
    fn empty_range_static_assignment_is_empty() {
        let d = ChunkDispenser::new(5..5, 4, Schedule::StaticBlock);
        assert!(d.static_assignment(2).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = ChunkDispenser::new(0..10, 2, Schedule::Dynamic(0));
    }

    #[test]
    #[should_panic(expected = "static_assignment on a dynamic policy")]
    fn wrong_mode_panics() {
        let d = ChunkDispenser::new(0..10, 2, Schedule::Dynamic(1));
        let _ = d.static_assignment(0);
    }

    #[test]
    fn schedule_chunk_accessor() {
        assert_eq!(Schedule::StaticBlock.chunk(), None);
        assert_eq!(Schedule::StaticChunk(2).chunk(), Some(2));
        assert_eq!(Schedule::Dynamic(3).chunk(), Some(3));
        assert_eq!(Schedule::Guided(4).chunk(), Some(4));
    }
}
