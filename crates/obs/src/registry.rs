//! The insertion-ordered metric registry.

use std::sync::{Arc, Mutex};

use crate::metric::{Counter, Histogram, Span};
use crate::snapshot::{MetricData, MetricSample, MetricsSnapshot};

/// The time domain a metric is recorded against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Virtual time (pi-sim cycles, parallel-rt's simulated clock) or
    /// pure event counts — deterministic for a given seed, part of the
    /// determinism contract, included in [`Registry::snapshot`].
    Virtual,
    /// Host wall time (barrier spins, worker chunk latencies) —
    /// diagnostics only, excluded from the deterministic snapshot.
    Wall,
}

impl Domain {
    /// Stable lowercase label used in the JSON export.
    pub fn label(self) -> &'static str {
        match self {
            Domain::Virtual => "virtual",
            Domain::Wall => "wall",
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Histogram(Histogram),
    Span(Span),
}

#[derive(Debug)]
struct Entry {
    name: String,
    domain: Domain,
    instrument: Instrument,
}

#[derive(Debug, Default)]
struct Inner {
    /// Insertion order is the export order — no ambient state, no
    /// hashing order, so two runs that register in the same sequence
    /// export in the same sequence. A registration finds a duplicate
    /// name by scanning: registries hold tens of metrics, and each
    /// name is stored once.
    entries: Vec<Entry>,
}

/// A deterministic, thread-safe metric registry.
///
/// Cloning a `Registry` clones the handle, not the metrics: clones
/// share one underlying store, so a registry threaded through several
/// layers accumulates into a single snapshot.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        domain: Domain,
        make: impl FnOnce() -> (T, Instrument),
        reuse: impl Fn(&Instrument) -> Option<T>,
        detached: impl FnOnce() -> T,
    ) -> T {
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(entry) = inner.entries.iter().find(|e| e.name == name) {
            return match reuse(&entry.instrument) {
                // Duplicate name, same kind: hand back the existing
                // instrument so both call sites feed one metric.
                Some(existing) => existing,
                // Kind collision: a live simulation must not abort over
                // a metric name, so the caller gets a working but
                // unregistered instrument (recorded values are simply
                // not exported).
                None => detached(),
            };
        }
        let (handle, instrument) = make();
        inner.entries.push(Entry {
            name: name.to_string(),
            domain,
            instrument,
        });
        handle
    }

    /// Registers (or retrieves) the counter `name`.
    pub fn counter(&self, name: &str, domain: Domain) -> Counter {
        self.register(
            name,
            domain,
            || {
                let c = Counter::new();
                (c.clone(), Instrument::Counter(c))
            },
            |existing| match existing {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Counter::new,
        )
    }

    /// Registers (or retrieves) the histogram `name` with the given
    /// inclusive upper bucket edges. On a duplicate name the existing
    /// histogram is returned and `edges` is ignored — the first
    /// registration fixes the geometry.
    pub fn histogram(&self, name: &str, domain: Domain, edges: &[u64]) -> Histogram {
        self.register(
            name,
            domain,
            || {
                let h = Histogram::new(edges);
                (h.clone(), Instrument::Histogram(h))
            },
            |existing| match existing {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || Histogram::new(edges),
        )
    }

    /// Registers (or retrieves) the span `name`. Hierarchy is the
    /// `/`-separated path: `pi_sim/core/0` renders nested under
    /// `pi_sim/core`.
    pub fn span(&self, name: &str, domain: Domain) -> Span {
        self.register(
            name,
            domain,
            || {
                let s = Span::new();
                (s.clone(), Instrument::Span(s))
            },
            |existing| match existing {
                Instrument::Span(s) => Some(s.clone()),
                _ => None,
            },
            Span::new,
        )
    }

    fn snapshot_where(&self, keep: impl Fn(Domain) -> bool) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry lock");
        let metrics = inner
            .entries
            .iter()
            .filter(|e| keep(e.domain))
            .map(|e| MetricSample {
                name: e.name.clone(),
                domain: e.domain,
                data: match &e.instrument {
                    Instrument::Counter(c) => MetricData::Counter { value: c.value() },
                    Instrument::Histogram(h) => MetricData::Histogram {
                        edges: h.edges().to_vec(),
                        counts: h.counts(),
                        count: h.count(),
                        sum: h.sum(),
                        min: h.min(),
                        max: h.max(),
                    },
                    Instrument::Span(s) => MetricData::Span {
                        total: s.total(),
                        entries: s.entries(),
                    },
                },
            })
            .collect();
        MetricsSnapshot { metrics }
    }

    /// The deterministic snapshot: every [`Domain::Virtual`] metric, in
    /// registration order. Byte-identical across runs of the same seed —
    /// this is what CI gates diff.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_where(|d| d == Domain::Virtual)
    }

    /// Every metric including wall-time diagnostics. Not deterministic;
    /// never feed this to a gate that diffs bytes.
    pub fn snapshot_all(&self) -> MetricsSnapshot {
        self.snapshot_where(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_counter_returns_the_existing_handle() {
        let r = Registry::new();
        let a = r.counter("hits", Domain::Virtual);
        a.add(3);
        let b = r.counter("hits", Domain::Virtual);
        b.add(4);
        assert_eq!(a.value(), 7, "both handles feed one counter");
        assert_eq!(r.snapshot().metrics.len(), 1);
    }

    #[test]
    fn duplicate_histogram_keeps_first_geometry() {
        let r = Registry::new();
        let a = r.histogram("depth", Domain::Virtual, &[1, 2]);
        let b = r.histogram("depth", Domain::Virtual, &[100, 200, 300]);
        assert_eq!(b.edges(), &[1, 2], "first registration wins");
        a.record(1);
        b.record(2);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn kind_collision_is_panic_free_and_detached() {
        let r = Registry::new();
        let c = r.counter("x", Domain::Virtual);
        c.add(5);
        // Re-registering "x" as a histogram must not panic and must not
        // disturb the registered counter.
        let h = r.histogram("x", Domain::Virtual, &[10]);
        h.record(3);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 1);
        assert!(matches!(
            snap.metrics[0].data,
            MetricData::Counter { value: 5 }
        ));
        // The detached handle still works locally.
        assert_eq!(h.count(), 1);
        // And a span collision likewise.
        let s = r.span("x", Domain::Virtual);
        s.record(9);
        assert_eq!(r.snapshot().metrics.len(), 1);
    }

    #[test]
    fn snapshot_preserves_insertion_order() {
        let r = Registry::new();
        r.counter("z_last_alphabetically_first_registered", Domain::Virtual);
        r.counter("a_first_alphabetically", Domain::Virtual);
        r.span("middle", Domain::Virtual);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "z_last_alphabetically_first_registered",
                "a_first_alphabetically",
                "middle"
            ]
        );
    }

    #[test]
    fn wall_metrics_are_excluded_from_the_deterministic_snapshot() {
        let r = Registry::new();
        r.counter("deterministic", Domain::Virtual).add(1);
        r.span("barrier_wait", Domain::Wall).record(123);
        assert_eq!(r.snapshot().metrics.len(), 1);
        assert_eq!(r.snapshot_all().metrics.len(), 2);
    }

    #[test]
    fn clones_share_the_store() {
        let r = Registry::new();
        let r2 = r.clone();
        r2.counter("shared", Domain::Virtual).add(2);
        assert_eq!(r.snapshot().metrics.len(), 1);
    }
}
