//! Wall-clock spans for the traced run, recorded on `obs::trace` and
//! analysed with `obs::trace::analyze`.
//!
//! The time axis is wall nanoseconds since the tracer started. Two
//! lanes carry the spans:
//!
//! * `unit` — one span per unit (a served day, a study, an OS cell) or
//!   per replay that follows it. The category says which:
//!   [`UNIT`] spans enclose the serial calls that make up the unit, so
//!   their children must add back up to them; [`REPLAY`] spans enclose
//!   calls replayed after the unit to split it into layers.
//! * `layer` — one span per call into a layer's public function. Its
//!   category is the layer operation (`cluster.run_day`), its value the
//!   unit id, and its name `op <- parent#unit`: the parent is the
//!   enclosing span on the `unit` lane with the same unit id.
//!
//! Spans never overlap within a lane, so the analyzer's per-category
//! busy time of a lane is the total time of that operation, and a
//! unit's self time is its busy time minus its children's.

use std::collections::BTreeMap;
use std::time::Instant;

use obs::trace::analyze::analyze;
use obs::trace::{Trace, TraceConfig, TraceRecorder};

use crate::harness::{percentile, Pass, Report};

/// Category of unit spans whose children must add up to them.
pub const UNIT: &str = "unit";
/// Category of replay spans (layer calls re-run after a unit).
pub const REPLAY: &str = "replay";

/// Events each lane may hold before the recorder starts dropping.
const LANE_CAPACITY: usize = 1 << 21;

/// Records wall-clock spans around calls into the layers.
pub struct Tracer {
    origin: Instant,
    rec: TraceRecorder,
    unit_lane: u32,
    layer_lane: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose time axis starts now.
    pub fn new() -> Self {
        let mut rec = TraceRecorder::new(&TraceConfig {
            capacity_per_lane: LANE_CAPACITY,
        });
        let unit_lane = rec.lane("unit");
        let layer_lane = rec.lane("layer");
        Tracer {
            origin: Instant::now(),
            rec,
            unit_lane,
            layer_lane,
        }
    }

    /// Wall nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the call `op` inside unit `unit` of kind `parent`,
    /// recording its span on the layer lane.
    pub fn layer<T>(
        &mut self,
        op: &'static str,
        parent: &str,
        unit: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        let buf = self.rec.buf(self.layer_lane);
        buf.begin(start, format!("{op} <- {parent}#{unit}"), op, unit);
        buf.end(end);
        out
    }

    /// Records the enclosing span of unit `unit`, named `name`, of
    /// category [`UNIT`] or [`REPLAY`].
    pub fn unit(&mut self, category: &'static str, name: &str, unit: u64, start: u64, end: u64) {
        let buf = self.rec.buf(self.unit_lane);
        buf.begin(start, format!("{name}#{unit}"), category, unit);
        buf.end(end);
    }

    /// Merges the lanes into one trace.
    pub fn finish(self) -> Trace {
        self.rec.finish()
    }
}

/// Busy nanoseconds per category on each lane, from the analyzer.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// `unit` lane: [`UNIT`] and [`REPLAY`] totals.
    pub units: BTreeMap<String, u64>,
    /// `layer` lane: total per layer operation.
    pub layers: BTreeMap<String, u64>,
    /// Events the recorder dropped (must be 0 for exact attribution).
    pub dropped: u64,
}

impl SelfTimes {
    /// Analyses `trace` with `obs::trace::analyze`.
    pub fn of(trace: &Trace) -> Self {
        let analysis = analyze(trace);
        let mut out = SelfTimes {
            dropped: analysis.dropped,
            ..SelfTimes::default()
        };
        for lane in &analysis.lanes {
            let target = match lane.name.as_str() {
                "unit" => &mut out.units,
                "layer" => &mut out.layers,
                _ => continue,
            };
            for (category, ns) in &lane.busy {
                target.insert(category.clone(), *ns);
            }
        }
        out
    }

    /// Total busy nanoseconds of layer operation `op`.
    pub fn layer_ns(&self, op: &str) -> u64 {
        self.layers.get(op).copied().unwrap_or(0)
    }

    /// Self time of the [`UNIT`] spans — their busy time minus that of
    /// `children` — as a fraction of their busy time.
    pub fn unit_self_frac(&self, children: &[&str]) -> f64 {
        let total = self.units.get(UNIT).copied().unwrap_or(0);
        if total == 0 {
            return 1.0;
        }
        let covered: u64 = children.iter().map(|op| self.layer_ns(op)).sum();
        total.saturating_sub(covered) as f64 / total as f64
    }
}

/// Largest share of the unit spans their children may leave uncovered.
const SELF_FRAC_LIMIT: f64 = 0.02;

/// Closes a traced run: writes the Chrome JSON to
/// `perfbench/out/<file>`, derives the self times, checks that
/// `children` cover the [`UNIT`] spans, and sets the `trace.*` metrics
/// (`traced_ms` against the untraced reference pass for the overhead).
/// Returns the self times and whether the attribution check held.
pub fn close(
    tracer: Tracer,
    file: &str,
    children: &[&str],
    traced_ms: &[f64],
    untraced: &Pass,
    report: &mut Report,
) -> (SelfTimes, bool) {
    let trace = tracer.finish();
    let times = SelfTimes::of(&trace);
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(file);
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace.to_chrome_json()));
    report.notes.push(match written {
        Ok(()) => format!("trace: {} ({} events)", path.display(), trace.events.len()),
        Err(err) => format!("trace not written: {err}"),
    });
    let self_frac = times.unit_self_frac(children);
    report.metrics.set("trace.unit_self_frac", self_frac);
    if untraced.units > 0 && !traced_ms.is_empty() {
        report.metrics.set(
            "trace.unit_p50_overhead_ms",
            percentile(traced_ms, 0.5) - percentile(untraced.wall_samples(), 0.5),
        );
    }
    let ok = times.dropped == 0 && self_frac <= SELF_FRAC_LIMIT;
    report.notes.push(format!(
        "unit self time {:.4}% of unit time, {} events dropped{}",
        100.0 * self_frac,
        times.dropped,
        if ok { "" } else { ": attribution check failed" }
    ));
    (times, ok)
}
