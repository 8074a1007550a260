//! Deterministic virtual-time series: windowed telemetry over the
//! cluster and the engines.
//!
//! A [`TimeSeries`] accumulates counter, gauge or histogram samples
//! into **fixed-width windows of virtual time** — a semester day, a
//! replicate-index span — inside a **bounded ring** of window points:
//! past the configured capacity the oldest window is evicted and
//! counted ([`TimeSeries::dropped`]), never silently lost. A
//! [`SeriesSet`] holds many series keyed by `(name, shard)`, merges
//! per-shard sets deterministically, rolls shards up into
//! cluster-level totals, and exports the whole thing as byte-stable
//! `"pbl-ts/v1"` JSON with an FNV-1a digest.
//!
//! ## The telemetry determinism contract
//!
//! Every window index is **virtual time** (day numbers, replicate
//! indices) — no wall clock may enter an exported series. Histogram
//! points use fixed bucket edges so p50/p95/p99 are integer bucket
//! values, not interpolations. Exports order every point by
//! `(window, shard, series)` — the same canonical merge order the
//! cluster uses for its dispatch plans — so two hosts producing the
//! same telemetry produce the same bytes.
//!
//! Two digests mirror the cluster's own pair:
//!
//! * [`SeriesSet::digest`] covers everything, including per-shard
//!   series — invariant under worker count for a fixed shard count;
//! * [`SeriesSet::invariant_digest`] covers only series flagged
//!   shard-invariant (admission-side counters) — one value across
//!   every (shards × workers) cell.

use std::collections::{BTreeMap, VecDeque};

use crate::json::{self, Layout};
use crate::trace::fnv1a;

/// The pseudo-shard id of cluster-level (not per-shard) series;
/// rendered as `"cluster"` in exports and sorted after real shards.
pub const CLUSTER_SHARD: u32 = u32::MAX;

/// What a series accumulates per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Samples add within a window.
    Counter,
    /// Last sample in a window wins.
    Gauge,
    /// Samples land in fixed buckets; percentiles read off the edges.
    Histogram,
}

impl SeriesKind {
    /// Stable JSON label.
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
        }
    }
}

/// One window's accumulated value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowPoint {
    /// Window index (`virtual time / window width`).
    pub window: u64,
    /// Counter sum or gauge value (0 for histograms).
    pub value: u64,
    /// Histogram bucket counts (`edges.len() + 1`, trailing overflow);
    /// empty for counters and gauges.
    pub counts: Vec<u64>,
    /// Histogram observation count.
    pub count: u64,
    /// Histogram observation sum (saturating).
    pub sum: u64,
    /// Smallest histogram observation (0 when empty).
    pub min: u64,
    /// Largest histogram observation (0 when empty).
    pub max: u64,
}

impl WindowPoint {
    fn new(window: u64, buckets: usize) -> Self {
        WindowPoint {
            window,
            value: 0,
            counts: vec![0; buckets],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

/// Nearest-rank percentile over fixed-edge buckets: the smallest edge
/// whose cumulative count reaches the `p_mille` rank (the overflow
/// bucket reports the observed max). Integer arithmetic only.
pub fn bucket_percentile(edges: &[u64], counts: &[u64], count: u64, max: u64, p_mille: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as u128 * p_mille as u128).div_ceil(1_000)).max(1) as u64;
    let mut cum = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return if i < edges.len() { edges[i] } else { max };
        }
    }
    max
}

/// One named series on one shard: a bounded ring of window points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    /// Series name (`sem/accepted`, `shard/p99_sojourn_vt`, ...).
    pub name: String,
    /// Owning shard, or [`CLUSTER_SHARD`] for cluster-level series.
    pub shard: u32,
    /// True when the series is a pure function of admission-side
    /// state and therefore bit-identical across every
    /// (shards × workers) cell; these make up the invariant digest.
    pub invariant: bool,
    /// What the series accumulates.
    pub kind: SeriesKind,
    /// Virtual-time width of one window.
    pub width: u64,
    /// Ring capacity in windows.
    pub capacity: usize,
    /// Histogram bucket edges (empty for counters and gauges).
    pub edges: Vec<u64>,
    /// Window points evicted from the ring or too old to route — the
    /// counted (never silent) truncation.
    pub dropped: u64,
    points: VecDeque<WindowPoint>,
}

impl TimeSeries {
    fn new(
        name: &str,
        shard: u32,
        invariant: bool,
        kind: SeriesKind,
        width: u64,
        capacity: usize,
        edges: &[u64],
    ) -> Self {
        TimeSeries {
            name: name.to_string(),
            shard,
            invariant,
            kind,
            width: width.max(1),
            capacity: capacity.max(1),
            edges: edges.to_vec(),
            dropped: 0,
            points: VecDeque::new(),
        }
    }

    fn buckets(&self) -> usize {
        if matches!(self.kind, SeriesKind::Histogram) {
            self.edges.len() + 1
        } else {
            0
        }
    }

    /// The stored window points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &WindowPoint> {
        self.points.iter()
    }

    /// Records a sample at virtual time `vt`. Samples for the current
    /// (or any retained) window accumulate by kind; a new window past
    /// the ring capacity evicts the oldest (counted in `dropped`), and
    /// a sample older than the ring's oldest window is dropped.
    pub fn record(&mut self, vt: u64, value: u64) {
        let window = vt / self.width;
        let buckets = self.buckets();
        let at = match self.points.back() {
            None => {
                self.points.push_back(WindowPoint::new(window, buckets));
                self.points.len() - 1
            }
            Some(last) if window > last.window => {
                if self.points.len() == self.capacity {
                    self.points.pop_front();
                    self.dropped += 1;
                }
                self.points.push_back(WindowPoint::new(window, buckets));
                self.points.len() - 1
            }
            Some(_) => {
                // In-ring (possibly out-of-order) window: binary search
                // the sorted ring; older than the ring is a counted drop.
                match self
                    .points
                    .binary_search_by_key(&window, |point| point.window)
                {
                    Ok(at) => at,
                    Err(0) => {
                        self.dropped += 1;
                        return;
                    }
                    Err(at) => {
                        self.points.insert(at, WindowPoint::new(window, buckets));
                        at
                    }
                }
            }
        };
        let point = &mut self.points[at];
        match self.kind {
            SeriesKind::Counter => point.value = point.value.saturating_add(value),
            SeriesKind::Gauge => point.value = value,
            SeriesKind::Histogram => {
                let bucket = self.edges.partition_point(|&edge| edge < value);
                point.counts[bucket] += 1;
                if point.count == 0 || value < point.min {
                    point.min = value;
                }
                if value > point.max {
                    point.max = value;
                }
                point.count += 1;
                point.sum = point.sum.saturating_add(value);
            }
        }
    }

    /// The scalar a window contributes to alerting: counter sum, gauge
    /// value, or histogram p99.
    pub fn scalar(&self, window: u64) -> Option<u64> {
        let point = self
            .points
            .binary_search_by_key(&window, |p| p.window)
            .ok()
            .map(|at| &self.points[at])?;
        Some(match self.kind {
            SeriesKind::Counter | SeriesKind::Gauge => point.value,
            SeriesKind::Histogram => {
                bucket_percentile(&self.edges, &point.counts, point.count, point.max, 990)
            }
        })
    }

    /// Sum of the scalar over an inclusive window range, treating
    /// absent windows as zero — the burn-rate evaluator's integral.
    pub fn window_sum(&self, lo: u64, hi: u64) -> u64 {
        self.points
            .iter()
            .filter(|p| p.window >= lo && p.window <= hi)
            .map(|p| match self.kind {
                SeriesKind::Counter | SeriesKind::Gauge => p.value,
                SeriesKind::Histogram => p.count,
            })
            .sum()
    }

    /// Folds another ring of the same `(name, shard)` series into this
    /// one: counters and histograms add per window, gauges take the
    /// other side's value (later merge argument wins), drop counts add.
    fn absorb(&mut self, other: &TimeSeries) {
        assert_eq!(self.kind, other.kind, "merge of mismatched series kinds");
        assert_eq!(self.edges, other.edges, "merge of mismatched edges");
        self.dropped += other.dropped;
        for point in &other.points {
            match self
                .points
                .binary_search_by_key(&point.window, |p| p.window)
            {
                Ok(at) => {
                    let mine = &mut self.points[at];
                    match self.kind {
                        SeriesKind::Counter => mine.value = mine.value.saturating_add(point.value),
                        SeriesKind::Gauge => mine.value = point.value,
                        SeriesKind::Histogram => {
                            for (a, b) in mine.counts.iter_mut().zip(&point.counts) {
                                *a += b;
                            }
                            if point.count > 0 {
                                if mine.count == 0 || point.min < mine.min {
                                    mine.min = point.min;
                                }
                                mine.max = mine.max.max(point.max);
                            }
                            mine.count += point.count;
                            mine.sum = mine.sum.saturating_add(point.sum);
                        }
                    }
                }
                Err(at) => self.points.insert(at, point.clone()),
            }
        }
        while self.points.len() > self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
    }
}

/// A set of series keyed by `(name, shard)`, with one window width and
/// ring capacity policy for every series it creates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSet {
    width: u64,
    capacity: usize,
    series: BTreeMap<(String, u32), TimeSeries>,
}

impl SeriesSet {
    /// An empty set whose series use `width`-wide windows and retain
    /// `capacity` windows each.
    pub fn new(width: u64, capacity: usize) -> Self {
        SeriesSet {
            width: width.max(1),
            capacity: capacity.max(1),
            series: BTreeMap::new(),
        }
    }

    /// The configured window width.
    pub fn width(&self) -> u64 {
        self.width
    }

    fn entry(
        &mut self,
        name: &str,
        shard: u32,
        invariant: bool,
        kind: SeriesKind,
        edges: &[u64],
    ) -> &mut TimeSeries {
        let series = self
            .series
            .entry((name.to_string(), shard))
            .or_insert_with(|| {
                TimeSeries::new(
                    name,
                    shard,
                    invariant,
                    kind,
                    self.width,
                    self.capacity,
                    edges,
                )
            });
        assert_eq!(series.kind, kind, "series {name} re-opened as another kind");
        series
    }

    /// Get-or-create a counter series.
    pub fn counter(&mut self, name: &str, shard: u32, invariant: bool) -> &mut TimeSeries {
        self.entry(name, shard, invariant, SeriesKind::Counter, &[])
    }

    /// Get-or-create a gauge series.
    pub fn gauge(&mut self, name: &str, shard: u32, invariant: bool) -> &mut TimeSeries {
        self.entry(name, shard, invariant, SeriesKind::Gauge, &[])
    }

    /// Get-or-create a histogram series with fixed bucket `edges`.
    pub fn histogram(
        &mut self,
        name: &str,
        shard: u32,
        invariant: bool,
        edges: &[u64],
    ) -> &mut TimeSeries {
        self.entry(name, shard, invariant, SeriesKind::Histogram, edges)
    }

    /// Looks up one series.
    pub fn get(&self, name: &str, shard: u32) -> Option<&TimeSeries> {
        self.series.get(&(name.to_string(), shard))
    }

    /// All series in `(name, shard)` order.
    pub fn iter(&self) -> impl Iterator<Item = &TimeSeries> {
        self.series.values()
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when the set holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The shards carrying a series of this name, ascending.
    pub fn shards_of(&self, name: &str) -> Vec<u32> {
        self.series
            .keys()
            .filter(|(n, _)| n == name)
            .map(|&(_, shard)| shard)
            .collect()
    }

    /// Total windows dropped across every series.
    pub fn total_dropped(&self) -> u64 {
        self.series.values().map(|s| s.dropped).sum()
    }

    /// Merges per-shard sets into one: series with the same
    /// `(name, shard)` key fold point-wise (counters and histograms
    /// add, gauges take the later part), disjoint keys concatenate.
    /// Argument order is the only order that matters, so the merge is
    /// deterministic by construction.
    pub fn merge(parts: Vec<SeriesSet>) -> SeriesSet {
        let width = parts.first().map_or(1, |p| p.width);
        let capacity = parts.first().map_or(1, |p| p.capacity);
        let mut merged = SeriesSet::new(width, capacity);
        for part in parts {
            for (key, series) in part.series {
                match merged.series.get_mut(&key) {
                    Some(mine) => mine.absorb(&series),
                    None => {
                        merged.series.insert(key, series);
                    }
                }
            }
        }
        merged
    }

    /// Rolls every shard of each series name up into one
    /// [`CLUSTER_SHARD`] series: counters, histograms and gauges all
    /// add per window (a queue-depth gauge summed over shards is the
    /// cluster queue depth). The result is a fresh set.
    pub fn rollup(&self) -> SeriesSet {
        let mut out = SeriesSet::new(self.width, self.capacity);
        for series in self.series.values() {
            let invariant = series.invariant;
            let entry = out.entry(
                &series.name,
                CLUSTER_SHARD,
                invariant,
                series.kind,
                &series.edges,
            );
            // Reuse the point-wise fold; gauges must add across shards
            // here (not last-wins), so fold them as counters.
            let mut part = series.clone();
            if matches!(series.kind, SeriesKind::Gauge) {
                part.kind = SeriesKind::Counter;
                entry.kind = SeriesKind::Counter;
                entry.absorb(&part);
                entry.kind = SeriesKind::Gauge;
            } else {
                entry.absorb(&part);
            }
        }
        out
    }

    /// Renders the series `filter` keeps, with the digest line after
    /// the schema line when `digested`.
    fn json_of(&self, filter: impl Fn(&TimeSeries) -> bool, digested: bool) -> String {
        let picked: Vec<&TimeSeries> = self.series.values().filter(|s| filter(s)).collect();
        let shards: Vec<String> = picked
            .iter()
            .map(|s| match s.shard {
                CLUSTER_SHARD => "cluster".to_string(),
                shard => shard.to_string(),
            })
            .collect();
        // Points in the canonical (window, shard, series) merge order,
        // each with the index of its series in `picked`.
        let mut rows: Vec<(usize, &WindowPoint)> = picked
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.points.iter().map(move |p| (i, p)))
            .collect();
        rows.sort_by_key(|&(i, p)| (p.window, picked[i].shard, picked[i].name.as_str()));
        json::document(0, digested, |doc| {
            doc.str("schema", "pbl-ts/v1");
            doc.array("series", Layout::Block, |series| {
                for (s, shard) in picked.iter().zip(&shards) {
                    series.object(Layout::Inline, |o| {
                        o.str("name", &s.name);
                        o.str("shard", shard);
                        o.str("kind", s.kind.label());
                        o.u64("width", s.width);
                        o.u64("capacity", s.capacity as u64);
                        o.token("invariant", s.invariant);
                        o.u64("dropped", s.dropped);
                        o.u64("points", s.points.len() as u64);
                    });
                }
            });
            doc.array("points", Layout::Block, |points| {
                for &(i, p) in &rows {
                    let s = picked[i];
                    points.object(Layout::Inline, |o| {
                        o.u64("window", p.window);
                        o.str("shard", &shards[i]);
                        o.str("series", &s.name);
                        match s.kind {
                            SeriesKind::Counter | SeriesKind::Gauge => o.u64("value", p.value),
                            SeriesKind::Histogram => {
                                let pct = |p_mille| {
                                    bucket_percentile(&s.edges, &p.counts, p.count, p.max, p_mille)
                                };
                                o.u64("count", p.count);
                                o.u64("sum", p.sum);
                                o.u64("min", p.min);
                                o.u64("max", p.max);
                                o.u64("p50", pct(500));
                                o.u64("p95", pct(950));
                                o.u64("p99", pct(990));
                                o.u64s("counts", p.counts.iter().copied());
                            }
                        }
                    });
                }
            });
        })
    }

    /// Serialises every series to the byte-stable `"pbl-ts/v1"` JSON:
    /// series metadata in `(name, shard)` order, then every window
    /// point in `(window, shard, series)` order.
    pub fn to_json(&self) -> String {
        self.json_of(|_| true, false)
    }

    /// FNV-1a digest of [`SeriesSet::to_json`] — worker-invariant for
    /// a fixed shard count when fed from the cluster.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_json().as_bytes())
    }

    /// The `"pbl-ts/v1"` JSON restricted to shard-invariant series.
    pub fn invariant_json(&self) -> String {
        self.json_of(|s| s.invariant, false)
    }

    /// FNV-1a digest of the invariant series alone — **the telemetry
    /// digest**: one value across every (shards × workers) cell.
    pub fn invariant_digest(&self) -> u64 {
        fnv1a(self.invariant_json().as_bytes())
    }

    /// [`SeriesSet::to_json`] with a `"digest"` line (its
    /// [`SeriesSet::digest`]) under the schema stamp, mirroring the
    /// metrics snapshot convention.
    pub fn to_json_with_digest(&self) -> String {
        self.json_of(|_| true, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_windows_accumulate_by_kind() {
        let mut set = SeriesSet::new(10, 8);
        let c = set.counter("jobs", 0, true);
        c.record(0, 2);
        c.record(9, 3); // same window (0..10)
        c.record(10, 5); // next window
        let points: Vec<_> = set.get("jobs", 0).unwrap().points().collect();
        assert_eq!(points.len(), 2);
        assert_eq!((points[0].window, points[0].value), (0, 5));
        assert_eq!((points[1].window, points[1].value), (1, 5));

        let g = set.gauge("depth", 0, false);
        g.record(0, 7);
        g.record(5, 3); // same window: last wins
        assert_eq!(set.get("depth", 0).unwrap().scalar(0), Some(3));
    }

    #[test]
    fn histogram_percentiles_read_off_the_edges() {
        let mut set = SeriesSet::new(1, 8);
        let h = set.histogram("lat", 0, false, &[10, 100, 1_000]);
        for v in [5, 7, 50, 90, 4_000] {
            h.record(0, v);
        }
        let s = set.get("lat", 0).unwrap();
        let p = s.points().next().unwrap();
        assert_eq!(p.counts, vec![2, 2, 0, 1]);
        assert_eq!((p.count, p.min, p.max), (5, 5, 4_000));
        assert_eq!(
            bucket_percentile(&s.edges, &p.counts, p.count, p.max, 500),
            100
        );
        assert_eq!(
            bucket_percentile(&s.edges, &p.counts, p.count, p.max, 990),
            4_000
        );
        assert_eq!(s.scalar(0), Some(4_000), "histogram scalar is p99");
    }

    #[test]
    fn ring_bounds_storage_and_counts_drops() {
        let mut set = SeriesSet::new(1, 3);
        let c = set.counter("x", 0, false);
        for w in 0..5 {
            c.record(w, 1);
        }
        let s = set.get("x", 0).unwrap();
        assert_eq!(s.dropped, 2, "two windows evicted");
        let windows: Vec<u64> = s.points().map(|p| p.window).collect();
        assert_eq!(windows, vec![2, 3, 4]);
        // A record older than the ring is dropped, not resurrected.
        set.counter("x", 0, false).record(0, 1);
        assert_eq!(set.get("x", 0).unwrap().dropped, 3);
    }

    #[test]
    fn merge_folds_same_key_and_concatenates_disjoint() {
        let mut a = SeriesSet::new(1, 16);
        a.counter("jobs", 0, false).record(0, 2);
        a.counter("jobs", 0, false).record(1, 4);
        let mut b = SeriesSet::new(1, 16);
        b.counter("jobs", 0, false).record(1, 6);
        b.counter("jobs", 1, false).record(0, 9);
        let m = SeriesSet::merge(vec![a, b]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("jobs", 0).unwrap().scalar(1), Some(10));
        assert_eq!(m.get("jobs", 1).unwrap().scalar(0), Some(9));
        assert_eq!(m.shards_of("jobs"), vec![0, 1]);
    }

    #[test]
    fn rollup_sums_across_shards_per_window() {
        let mut set = SeriesSet::new(1, 16);
        set.counter("jobs", 0, false).record(0, 2);
        set.counter("jobs", 1, false).record(0, 3);
        set.gauge("depth", 0, false).record(0, 5);
        set.gauge("depth", 1, false).record(0, 7);
        let up = set.rollup();
        assert_eq!(up.get("jobs", CLUSTER_SHARD).unwrap().scalar(0), Some(5));
        assert_eq!(up.get("depth", CLUSTER_SHARD).unwrap().scalar(0), Some(12));
        assert_eq!(
            up.get("depth", CLUSTER_SHARD).unwrap().kind,
            SeriesKind::Gauge
        );
    }

    #[test]
    fn json_is_stable_ordered_and_digested() {
        let mut set = SeriesSet::new(1, 16);
        set.counter("b", 1, false).record(0, 1);
        set.counter("a", CLUSTER_SHARD, true).record(0, 2);
        set.counter("a", CLUSTER_SHARD, true).record(1, 3);
        let json = set.to_json();
        assert!(json.contains("\"schema\": \"pbl-ts/v1\""));
        // Points sorted by (window, shard, series): window 0 shard 1
        // before window 0 cluster, before window 1.
        let b_at = json.find("\"series\": \"b\"").unwrap();
        let a0_at = json.find("\"window\": 0, \"shard\": \"cluster\"").unwrap();
        let a1_at = json.find("\"window\": 1").unwrap();
        assert!(b_at < a0_at && a0_at < a1_at, "{json}");
        assert_eq!(set.digest(), set.clone().digest());
        // The invariant digest sees only the invariant series.
        assert!(set.invariant_json().contains("\"a\""));
        assert!(!set.invariant_json().contains("\"b\""));
        assert_ne!(set.invariant_digest(), set.digest());
        // The digest-decorated form embeds the plain digest.
        let with = set.to_json_with_digest();
        assert!(with.contains(&format!("\"digest\": \"0x{:016x}\"", set.digest())));
    }

    #[test]
    fn names_are_escaped_and_change_the_digest() {
        let render = |name: &str| {
            let mut set = SeriesSet::new(1, 4);
            set.counter(name, 0, true).record(0, 1);
            set
        };
        let odd = render("jobs \"fast\"\\\n");
        let json = odd.to_json();
        assert!(
            json.contains(r#"{"name": "jobs \"fast\"\\\u000a", "shard": "0""#),
            "{json}"
        );
        assert!(
            json.contains(r#""series": "jobs \"fast\"\\\u000a", "value": 1}"#),
            "{json}"
        );
        assert_ne!(odd.digest(), render("jobs fast").digest());
    }

    #[test]
    fn window_sum_treats_absent_windows_as_zero() {
        let mut set = SeriesSet::new(1, 16);
        let c = set.counter("r", CLUSTER_SHARD, true);
        c.record(2, 5);
        c.record(6, 7);
        let s = set.get("r", CLUSTER_SHARD).unwrap();
        assert_eq!(s.window_sum(0, 6), 12);
        assert_eq!(s.window_sum(3, 5), 0);
        assert_eq!(s.window_sum(6, 6), 7);
    }
}
