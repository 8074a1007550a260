//! The three metric instruments: counters, histograms, spans.
//!
//! All three are cheap `Arc` handles over atomic state, so instrumented
//! code clones them freely and records lock-free from any thread.
//! Every mutation commutes (saturating adds, bucket increments), which
//! is what makes the final values thread-count invariant when the
//! recorded multiset of values is.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Saturating add into an atomic: the counter sticks at `u64::MAX`
/// instead of wrapping, so an overflowing instrument reads as "pegged"
/// rather than corrupting the snapshot.
fn saturating_fetch_add(cell: &AtomicU64, delta: u64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(delta);
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct CounterState {
    value: AtomicU64,
}

/// A monotonic counter. Increments saturate at `u64::MAX`.
#[derive(Debug, Clone)]
pub struct Counter {
    state: Arc<CounterState>,
}

impl Counter {
    pub(crate) fn new() -> Self {
        Counter {
            state: Arc::new(CounterState::default()),
        }
    }

    /// Adds `delta`, saturating at `u64::MAX`.
    pub fn add(&self, delta: u64) {
        saturating_fetch_add(&self.state.value, delta);
    }

    /// Increments by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.state.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistogramState {
    /// Inclusive upper edges, strictly increasing; values above the
    /// last edge land in the overflow bucket.
    edges: Vec<u64>,
    /// One count per edge plus the trailing overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram over `u64` values (cycles, sizes, depths).
///
/// Bucket `i` counts values `v` with `v <= edges[i]` (and greater than
/// the previous edge); values above the last edge land in a dedicated
/// overflow bucket. The edge layout is fixed at registration, so two
/// runs always bucket identically.
#[derive(Debug, Clone)]
pub struct Histogram {
    state: Arc<HistogramState>,
}

impl Histogram {
    /// Builds a histogram with the given inclusive upper edges. Edges
    /// are sorted and deduplicated, so any non-empty list is valid; an
    /// empty list yields a single overflow bucket.
    pub(crate) fn new(edges: &[u64]) -> Self {
        let mut edges = edges.to_vec();
        edges.sort_unstable();
        edges.dedup();
        let counts = (0..edges.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            state: Arc::new(HistogramState {
                edges,
                counts,
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation of `value`.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` at once. Counts, sum, min and
    /// max end exactly as after `n` calls to [`Histogram::record`], so a
    /// caller can tally in plain integers and record once.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let s = &self.state;
        let bucket = s.edges.partition_point(|&edge| edge < value);
        s.counts[bucket].fetch_add(n, Ordering::Relaxed);
        saturating_fetch_add(&s.sum, value.saturating_mul(n));
        s.min.fetch_min(value, Ordering::Relaxed);
        s.max.fetch_max(value, Ordering::Relaxed);
    }

    /// The inclusive upper edges.
    pub fn edges(&self) -> &[u64] {
        &self.state.edges
    }

    /// Per-bucket counts: one per edge, then the overflow bucket.
    pub fn counts(&self) -> Vec<u64> {
        self.state
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.state.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        let m = self.state.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.state.max.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
pub(crate) struct SpanState {
    total: AtomicU64,
    entries: AtomicU64,
}

/// A hierarchical time accumulator: total duration and entry count for
/// one named region. Hierarchy is carried by the registered name — the
/// `/`-separated path nests in the text rendering (`pi_sim/core/0` is a
/// child of `pi_sim/core`), so related spans group without any runtime
/// parent bookkeeping.
///
/// Spans have no clock of their own: callers pass the duration they
/// measured, in whatever unit the span's [`crate::Domain`] implies
/// (virtual cycles for `Virtual`, nanoseconds for `Wall`).
#[derive(Debug, Clone)]
pub struct Span {
    state: Arc<SpanState>,
}

impl Span {
    pub(crate) fn new() -> Self {
        Span {
            state: Arc::new(SpanState::default()),
        }
    }

    /// Records one entry of `duration` time units.
    pub fn record(&self, duration: u64) {
        self.record_entries(duration, 1);
    }

    /// Records `entries` entries whose durations sum to `total` at once;
    /// the span ends exactly as after recording each entry on its own.
    pub fn record_entries(&self, total: u64, entries: u64) {
        saturating_fetch_add(&self.state.total, total);
        self.state.entries.fetch_add(entries, Ordering::Relaxed);
    }

    /// Times `f` on the wall clock and records the elapsed nanoseconds.
    /// Only meaningful for [`crate::Domain::Wall`] spans — virtual-time
    /// spans must be fed measured virtual durations via [`Span::record`].
    pub fn time_wall<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        out
    }

    /// Accumulated duration across all entries.
    pub fn total(&self) -> u64 {
        self.state.total.load(Ordering::Relaxed)
    }

    /// Number of recorded entries.
    pub fn entries(&self) -> u64 {
        self.state.entries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_increments() {
        let c = Counter::new();
        c.add(5);
        c.incr();
        assert_eq!(c.value(), 6);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.value(), u64::MAX, "pegged at the ceiling");
        c.incr();
        assert_eq!(c.value(), u64::MAX, "stays pegged");
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let h = Histogram::new(&[10, 20, 30]);
        h.record(0); // <= 10 → bucket 0
        h.record(10); // == 10 → bucket 0 (inclusive)
        h.record(11); // bucket 1
        h.record(20); // bucket 1
        h.record(30); // bucket 2
        h.record(31); // overflow
        h.record(u64::MAX); // overflow
        assert_eq!(h.counts(), vec![2, 2, 1, 2]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_edges_are_sorted_and_deduped() {
        let h = Histogram::new(&[30, 10, 20, 10]);
        assert_eq!(h.edges(), &[10, 20, 30]);
        assert_eq!(h.counts().len(), 4, "3 edges + overflow");
    }

    #[test]
    fn empty_edge_list_is_one_overflow_bucket() {
        let h = Histogram::new(&[]);
        h.record(42);
        assert_eq!(h.counts(), vec![1]);
    }

    #[test]
    fn histogram_sum_saturates() {
        let h = Histogram::new(&[1]);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let h = Histogram::new(&[5]);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn span_accumulates() {
        let s = Span::new();
        s.record(100);
        s.record(250);
        assert_eq!(s.total(), 350);
        assert_eq!(s.entries(), 2);
    }

    #[test]
    fn histogram_bulk_record_matches_single_records() {
        let single = Histogram::new(&[10, 20, 30]);
        let bulk = Histogram::new(&[10, 20, 30]);
        for (v, n) in [
            (7, 1),
            (0, 3),
            (20, 4),
            (31, 2),
            (1 << 63, 2),
            (u64::MAX, 3),
        ] {
            for _ in 0..n {
                single.record(v);
            }
            bulk.record_n(v, n);
            assert_eq!(bulk.counts(), single.counts(), "after ({v}, {n})");
            assert_eq!(
                (bulk.sum(), bulk.min(), bulk.max()),
                (single.sum(), single.min(), single.max())
            );
        }
        assert_eq!(bulk.sum(), u64::MAX, "the sum saturates as it does singly");
    }

    #[test]
    fn histogram_bulk_record_of_nothing_changes_nothing() {
        let h = Histogram::new(&[10]);
        h.record_n(5, 0);
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (0, 0, 0, 0));
        h.record(7);
        h.record_n(1, 0);
        h.record_n(100, 0);
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (1, 7, 7, 7));
    }

    #[test]
    fn span_bulk_record_matches_single_records() {
        let single = Span::new();
        let bulk = Span::new();
        let groups: [&[u64]; 4] = [&[], &[5], &[100, 250, 3], &[1 << 63, 1 << 63]];
        for group in groups {
            for &d in group {
                single.record(d);
            }
            let total = group.iter().fold(0u64, |a, &d| a.saturating_add(d));
            bulk.record_entries(total, group.len() as u64);
            assert_eq!(
                (bulk.total(), bulk.entries()),
                (single.total(), single.entries())
            );
        }
        assert_eq!(
            bulk.total(),
            u64::MAX,
            "the total saturates as it does singly"
        );
    }

    #[test]
    fn span_time_wall_records_an_entry() {
        let s = Span::new();
        let out = s.time_wall(|| 7);
        assert_eq!(out, 7);
        assert_eq!(s.entries(), 1);
    }

    #[test]
    fn concurrent_counter_adds_are_exact() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.value(), 40_000);
    }
}
