//! The exported form of a registry: a stable, diffable snapshot.

use std::fmt::Write as _;

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
    /// digest line's slot after the schema line when `digested`.
    fn render(&self, digested: bool) -> String {
        // Room for every metric at its widest numbers, so the writer
        // does not regrow; the result is trimmed to its length below.
        let bound = 64
            + DIGEST_LINE_LEN
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
        let mut out = String::with_capacity(bound);
        out.push_str("{\n  \"schema\": \"pbl-obs/v");
        push_u64(&mut out, u64::from(Self::SCHEMA_VERSION));
        out.push_str("\",\n");
        let slot = digested.then(|| open_digest_slot(&mut out));
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str("    {\"name\": \"");
            crate::trace::push_escaped(&mut out, &m.name);
            out.push_str("\", \"kind\": \"");
            match &m.data {
                MetricData::Counter { value } => {
                    push_kind(&mut out, "counter", m.domain);
                    push_field(&mut out, "value", *value);
                }
                MetricData::Histogram {
                    edges,
                    counts,
                    count,
                    sum,
                    min,
                    max,
                } => {
                    push_kind(&mut out, "histogram", m.domain);
                    out.push_str(", \"edges\": ");
                    push_u64_array(&mut out, edges);
                    out.push_str(", \"counts\": ");
                    push_u64_array(&mut out, counts);
                    push_field(&mut out, "count", *count);
                    push_field(&mut out, "sum", *sum);
                    push_field(&mut out, "min", *min);
                    push_field(&mut out, "max", *max);
                }
                MetricData::Span { total, entries } => {
                    push_kind(&mut out, "span", m.domain);
                    push_field(&mut out, "total", *total);
                    push_field(&mut out, "entries", *entries);
                }
            }
            out.push_str(if i + 1 == self.metrics.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("  ]\n}\n");
        if let Some(slot) = slot {
            fill_digest_slot(&mut out, slot);
        }
        out.shrink_to_fit();
        out
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

/// Width of a digested document's digest line:
/// `  "digest": "0x` + 16 hex digits + `",\n`.
const DIGEST_LINE_LEN: usize = DIGEST_PLACEHOLDER.len();

/// The digest line before its digits are known.
const DIGEST_PLACEHOLDER: &str = "  \"digest\": \"0x0000000000000000\",\n";

/// Where the 16 hex digits start within the digest line.
const DIGEST_DIGITS_AT: usize = DIGEST_LINE_LEN - 16 - 3;

/// Appends the digest line's placeholder to `out` and returns its
/// offset, for [`fill_digest_slot`] once the document is complete.
pub(crate) fn open_digest_slot(out: &mut String) -> usize {
    let at = out.len();
    out.push_str(DIGEST_PLACEHOLDER);
    at
}

/// Writes into the slot at `at` the FNV-1a of every byte of `out` but
/// the slot's own: the digest of the document rendered without the
/// line. The line has a fixed width, so nothing moves.
pub(crate) fn fill_digest_slot(out: &mut String, at: usize) {
    let bytes = out.as_bytes();
    let mut hash = crate::trace::Fnv1a::new();
    hash.write(&bytes[..at]);
    hash.write(&bytes[at + DIGEST_LINE_LEN..]);
    let digest = hash.finish();
    let mut hex = [0u8; 16];
    for (i, digit) in hex.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(digest >> (60 - 4 * i)) as usize & 0xf];
    }
    let digits = at + DIGEST_DIGITS_AT;
    out.replace_range(
        digits..digits + 16,
        std::str::from_utf8(&hex).expect("hex digits are ASCII"),
    );
}

/// Appends `value` in decimal.
fn push_u64(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Appends `[a, b, c]`.
fn push_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, &value) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_u64(out, value);
    }
    out.push(']');
}

/// Appends `, "key": value`.
fn push_field(out: &mut String, key: &str, value: u64) {
    out.push_str(", \"");
    out.push_str(key);
    out.push_str("\": ");
    push_u64(out, value);
}

/// Appends a metric's kind (after its opening quote) and domain.
fn push_kind(out: &mut String, kind: &str, domain: Domain) {
    out.push_str(kind);
    out.push_str("\", \"domain\": \"");
    out.push_str(domain.label());
    out.push('"');
}

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
