//! The exported form of a registry: a stable, diffable snapshot.

use std::fmt::Write as _;

use crate::json::{self, Layout};
use crate::registry::Domain;

/// The value part of one exported metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricData {
    /// A monotonic counter's value.
    Counter {
        /// Current (saturating) count.
        value: u64,
    },
    /// A histogram's buckets and moments.
    Histogram {
        /// Inclusive upper edges.
        edges: Vec<u64>,
        /// Per-bucket counts; one per edge plus the trailing overflow
        /// bucket.
        counts: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Saturating sum of observations.
        sum: u64,
        /// Smallest observation (0 when empty).
        min: u64,
        /// Largest observation (0 when empty).
        max: u64,
    },
    /// A span's accumulated time.
    Span {
        /// Total accumulated duration.
        total: u64,
        /// Number of entries.
        entries: u64,
    },
}

/// One metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Registered name (a `/`-separated path for spans).
    pub name: String,
    /// Time domain the metric was recorded against.
    pub domain: Domain,
    /// The exported value.
    pub data: MetricData,
}

/// An ordered snapshot of a [`crate::Registry`] — the stable JSON
/// schema CI diffs and the bench bins embed.
///
/// Two snapshots of the same metrics are byte-identical in both
/// exports: order is registration order, numbers are plain `u64`s, and
/// nothing host-dependent is interpolated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Exported metrics in registration order.
    pub metrics: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Schema version of the JSON export; bump on any layout change so
    /// downstream diffs fail loudly instead of silently comparing
    /// different shapes.
    pub const SCHEMA_VERSION: u32 = 1;

    /// Serialises to the stable JSON schema:
    ///
    /// ```json
    /// {
    ///   "schema": "pbl-obs/v1",
    ///   "metrics": [
    ///     {"name": "...", "kind": "counter", "domain": "virtual", "value": 7},
    ///     {"name": "...", "kind": "histogram", "domain": "virtual",
    ///      "edges": [..], "counts": [..], "count": 3, "sum": 9, "min": 1, "max": 5},
    ///     {"name": "...", "kind": "span", "domain": "virtual", "total": 40, "entries": 2}
    ///   ]
    /// }
    /// ```
    ///
    /// Names are written as JSON strings, so a `"`, a `\\` or a
    /// control character in one is escaped.
    pub fn to_json(&self) -> String {
        self.render(false)
    }

    /// Writes the document in one pass into one `String`, with the
    /// digest line after the schema line when `digested`.
    fn render(&self, digested: bool) -> String {
        // Room for the header, the digest line and every metric at its
        // widest numbers, so the writer does not regrow.
        let bound = 100
            + self
                .metrics
                .iter()
                .map(|m| {
                    let numbers = match &m.data {
                        MetricData::Counter { .. } => 1,
                        MetricData::Histogram { edges, counts, .. } => {
                            4 + edges.len() + counts.len()
                        }
                        MetricData::Span { .. } => 2,
                    };
                    160 + m.name.len() + 22 * numbers
                })
                .sum::<usize>();
        json::document(bound, digested, |doc| {
            doc.str("schema", SCHEMA);
            doc.array("metrics", Layout::Block, |metrics| {
                for m in &self.metrics {
                    metrics.object(Layout::Inline, |metric| {
                        metric.str("name", &m.name);
                        let kind = match &m.data {
                            MetricData::Counter { .. } => "counter",
                            MetricData::Histogram { .. } => "histogram",
                            MetricData::Span { .. } => "span",
                        };
                        metric.str("kind", kind);
                        metric.str("domain", m.domain.label());
                        match &m.data {
                            MetricData::Counter { value } => metric.u64("value", *value),
                            MetricData::Histogram {
                                edges,
                                counts,
                                count,
                                sum,
                                min,
                                max,
                            } => {
                                metric.u64s("edges", edges.iter().copied());
                                metric.u64s("counts", counts.iter().copied());
                                metric.u64("count", *count);
                                metric.u64("sum", *sum);
                                metric.u64("min", *min);
                                metric.u64("max", *max);
                            }
                            MetricData::Span { total, entries } => {
                                metric.u64("total", *total);
                                metric.u64("entries", *entries);
                            }
                        }
                    });
                }
            });
        })
    }

    /// Renders a human-readable listing, indenting each metric by the
    /// depth of its `/`-separated path so span hierarchies read as a
    /// tree.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics snapshot ({} metrics)", self.metrics.len());
        for m in &self.metrics {
            let depth = m.name.matches('/').count();
            let pad = "  ".repeat(depth + 1);
            let leaf = m.name.rsplit('/').next().unwrap_or(&m.name);
            match &m.data {
                MetricData::Counter { value } => {
                    let _ = writeln!(out, "{pad}{leaf:<28} {value:>14}  [counter] ({})", m.name);
                }
                MetricData::Histogram {
                    edges,
                    counts,
                    count,
                    sum,
                    min,
                    max,
                } => {
                    let _ = writeln!(
                        out,
                        "{pad}{leaf:<28} n={count} sum={sum} min={min} max={max}  [histogram] ({})",
                        m.name
                    );
                    for (j, c) in counts.iter().enumerate() {
                        if *c == 0 {
                            continue;
                        }
                        let label = if j < edges.len() {
                            format!("<= {}", edges[j])
                        } else {
                            "overflow".to_string()
                        };
                        let _ = writeln!(out, "{pad}  {label:>12}: {c}");
                    }
                }
                MetricData::Span { total, entries } => {
                    let _ = writeln!(
                        out,
                        "{pad}{leaf:<28} total={total} entries={entries}  [span] ({})",
                        m.name
                    );
                }
            }
        }
        out
    }

    /// FNV-1a digest of the JSON bytes — two snapshots are bit-identical
    /// iff their digests match, the currency of the CI determinism
    /// smokes.
    pub fn digest(&self) -> u64 {
        crate::trace::fnv1a(self.to_json().as_bytes())
    }

    /// Like [`MetricsSnapshot::to_json`] with one extra field: a
    /// `"digest"` line (the FNV-1a fingerprint of the undecorated
    /// JSON, which is [`MetricsSnapshot::digest`]) after the schema
    /// header. This is the form a served job's result carries, so every
    /// exported snapshot holds its own determinism fingerprint.
    pub fn to_json_with_digest(&self) -> String {
        self.render(true)
    }
}

/// The schema stamp: `pbl-obs/v` and [`MetricsSnapshot::SCHEMA_VERSION`].
const SCHEMA: &str = "pbl-obs/v1";

#[cfg(test)]
mod tests {
    use crate::{Domain, Registry};

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("cache/l1_hits", Domain::Virtual).add(12);
        let h = r.histogram("events/queue_depth", Domain::Virtual, &[1, 4]);
        h.record(1);
        h.record(3);
        h.record(9);
        r.span("core/0/busy", Domain::Virtual).record(500);
        r
    }

    #[test]
    fn json_is_stable_and_complete() {
        let json = sample_registry().snapshot().to_json();
        assert!(json.contains("\"schema\": \"pbl-obs/v1\""));
        assert!(json.contains(
            "{\"name\": \"cache/l1_hits\", \"kind\": \"counter\", \"domain\": \"virtual\", \"value\": 12}"
        ));
        assert!(json.contains("\"edges\": [1, 4], \"counts\": [1, 1, 1], \"count\": 3"));
        assert!(json.contains(
            "{\"name\": \"core/0/busy\", \"kind\": \"span\", \"domain\": \"virtual\", \"total\": 500, \"entries\": 1}"
        ));
    }

    #[test]
    fn identical_recordings_give_byte_identical_json_and_equal_digests() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
    }

    #[test]
    fn json_with_digest_embeds_the_plain_digest() {
        let snap = sample_registry().snapshot();
        let with = snap.to_json_with_digest();
        assert!(with.contains(&format!("\"digest\": \"0x{:016x}\"", snap.digest())));
        // A served result keeps the document, so it holds no spare room.
        assert_eq!(with.capacity(), with.len());
        // Removing the digest line recovers the plain JSON byte-for-byte.
        let stripped: String = with
            .lines()
            .filter(|l| !l.contains("\"digest\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, snap.to_json());
    }

    #[test]
    fn names_are_escaped_and_change_the_digest() {
        let render = |name: &str| {
            let r = Registry::new();
            r.counter(name, Domain::Virtual).add(1);
            r.snapshot()
        };
        let odd = render("a\"b\\c\nd");
        let plain = render("abcd");
        assert!(odd.to_json().contains(
            "{\"name\": \"a\\\"b\\\\c\\u000ad\", \"kind\": \"counter\", \"domain\": \"virtual\", \"value\": 1}"
        ));
        assert_ne!(odd.digest(), plain.digest());
        assert!(odd
            .to_json_with_digest()
            .contains(&format!("\"digest\": \"0x{:016x}\"", odd.digest())));
    }

    #[test]
    fn schema_stamp_carries_the_version() {
        assert_eq!(
            super::SCHEMA,
            format!("pbl-obs/v{}", super::MetricsSnapshot::SCHEMA_VERSION)
        );
    }

    #[test]
    fn digest_is_sensitive_to_values() {
        let r = sample_registry();
        let before = r.snapshot().digest();
        r.counter("cache/l1_hits", Domain::Virtual).incr();
        assert_ne!(before, r.snapshot().digest());
    }

    #[test]
    fn text_rendering_nests_by_path_depth() {
        let text = sample_registry().snapshot().render_text();
        assert!(text.contains("metrics snapshot (3 metrics)"));
        assert!(text.contains("l1_hits"));
        assert!(text.contains("overflow"), "9 > last edge 4");
        // core/0/busy sits two levels deep → three pads of indent.
        assert!(text.contains("      busy"));
    }
}
