//! Deterministic virtual-time event tracing.
//!
//! Where the metrics side of this crate answers "how much", the trace
//! side answers "when, in what order": a stream of [`TraceEvent`]s
//! (span begin/end, instants, counter samples) timestamped in **virtual
//! time** — simulated cycles for pi-sim, replicate indices for the
//! replication engine, pair counts for mapreduce — so an export is
//! byte-identical across hosts and across host thread counts.
//!
//! Events are recorded into per-worker [`TraceBuffer`]s (bounded
//! memory: past the configured capacity new events are dropped and
//! counted, never silently lost) and merged into a single [`Trace`] by
//! a stable `(virtual_time, lane, seq)` sort. Two consumers live next
//! door:
//!
//! * [`Trace::to_chrome_json`] — Chrome trace-event JSON, loadable in
//!   Perfetto / `chrome://tracing`.
//! * [`crate::trace::analyze`] — critical path, per-lane utilization
//!   and a time-attribution table, plus an FNV-1a digest for CI gating.

use crate::json::{self, Layout};

pub mod analyze;

/// Virtual timestamps: simulated cycles, replicate indices, pair
/// counts — whatever deterministic clock the recording layer owns.
pub type VirtualTime = u64;

/// Well-known event categories shared by the instrumented layers. The
/// analyzer groups attribution columns by category, so layers reuse
/// these instead of inventing spellings.
pub mod category {
    /// A core executing a scheduled slice of a thread.
    pub const SLICE: &str = "slice";
    /// A thread blocked at a barrier.
    pub const BARRIER_WAIT: &str = "barrier_wait";
    /// A thread blocked acquiring a lock.
    pub const LOCK_WAIT: &str = "lock_wait";
    /// A thread runnable but waiting for a core.
    pub const SCHED_WAIT: &str = "sched_wait";
    /// Bus-contention instants (extra cycles in the event value).
    pub const BUS: &str = "bus";
    /// Cache counter samples (hits/misses per core).
    pub const CACHE: &str = "cache";
    /// Chunk dispatch/lifecycle events of a work queue.
    pub const CHUNK: &str = "chunk";
    /// A whole engine phase (map, shuffle, reduce).
    pub const PHASE: &str = "phase";
    /// A scheduled job occupying its tenant's virtual-time lane in the
    /// serve layer.
    pub const JOB: &str = "job";
    /// Admission-queue depth samples of the serve layer.
    pub const QUEUE: &str = "queue";
    /// One controlled-scheduler step of the schedule-space explorer
    /// (event value = index of the lane that stepped).
    pub const STEP: &str = "step";
    /// A happens-before race report from the explorer's vector-clock
    /// detector (event value = schedule-independent race signature).
    pub const RACE: &str = "race";
    /// Kernel time spent inside an OS trap — the explicit syscall step
    /// on a core lane, or a process lane blocked in a syscall
    /// (sleep/wait). Span cycles count toward the lane's attribution.
    pub const SYSCALL: &str = "syscall";
    /// A context switch on a core lane: instants named `preempt`
    /// (involuntary, quantum expiry — event value = descheduled pid) or
    /// `switch` (voluntary — yield, block, exit). The analyzer's
    /// context-switch summary row counts these.
    pub const PREEMPT: &str = "preempt";
}

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opens on the event's lane.
    Begin,
    /// The innermost open span on the lane closes.
    End,
    /// A point event.
    Instant,
    /// A counter sample; the sampled value is in [`TraceEvent::value`].
    Counter,
}

impl EventKind {
    /// Chrome trace-event phase letter.
    fn phase(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
        }
    }
}

/// One event in the virtual-time stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual timestamp.
    pub time: VirtualTime,
    /// Recording lane (a core, a software thread, a queue — one row in
    /// the viewer).
    pub lane: u32,
    /// Per-lane record sequence number; the tiebreaker that makes the
    /// merged order total and therefore byte-stable.
    pub seq: u64,
    /// Event name ([`EventKind::End`] events leave it empty).
    pub name: String,
    /// Category from [`category`] (attribution column in the analyzer).
    pub category: &'static str,
    /// Kind of mark.
    pub kind: EventKind,
    /// Payload: counter value, thread id of a slice, extra contention
    /// cycles — whatever the emitting layer documents.
    pub value: u64,
}

/// A bounded per-worker ring of events. Recording past `capacity`
/// drops the new event and counts it ([`TraceBuffer::dropped`]) — the
/// kept prefix stays exactly interpretable and memory stays bounded.
#[derive(Debug)]
pub struct TraceBuffer {
    lane: u32,
    name: String,
    capacity: usize,
    seq: u64,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a buffer recording onto `lane`, holding at most
    /// `capacity` events.
    pub fn new(lane: u32, name: impl Into<String>, capacity: usize) -> Self {
        TraceBuffer {
            lane,
            name: name.into(),
            capacity,
            seq: 0,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// The lane this buffer records onto.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn record(
        &mut self,
        time: VirtualTime,
        name: impl Into<String>,
        category: &'static str,
        kind: EventKind,
        value: u64,
    ) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.events.push(TraceEvent {
            time,
            lane: self.lane,
            seq,
            name: name.into(),
            category,
            kind,
            value,
        });
    }

    /// Opens a span at `time`.
    pub fn begin(
        &mut self,
        time: VirtualTime,
        name: impl Into<String>,
        category: &'static str,
        value: u64,
    ) {
        self.record(time, name, category, EventKind::Begin, value);
    }

    /// Closes the innermost open span at `time`.
    pub fn end(&mut self, time: VirtualTime) {
        self.record(time, "", "", EventKind::End, 0);
    }

    /// Records a point event at `time`.
    pub fn instant(
        &mut self,
        time: VirtualTime,
        name: impl Into<String>,
        category: &'static str,
        value: u64,
    ) {
        self.record(time, name, category, EventKind::Instant, value);
    }

    /// Records a counter sample at `time`.
    pub fn counter(
        &mut self,
        time: VirtualTime,
        name: impl Into<String>,
        category: &'static str,
        value: u64,
    ) {
        self.record(time, name, category, EventKind::Counter, value);
    }
}

/// One lane of a merged [`Trace`]: a row in the viewer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneInfo {
    /// Lane id ([`TraceEvent::lane`] refers to this).
    pub id: u32,
    /// Human name ("core/0", "thread/3", "replicate/queue").
    pub name: String,
    /// Process group the lane belongs to (viewer `pid`); [`Trace::merge`]
    /// gives each merged source its own group.
    pub pid: u32,
    /// Events this lane's ring buffer dropped on overflow — kept per
    /// lane so the analyzer can say *which* rows are truncated, not
    /// just that something somewhere overflowed.
    pub dropped: u64,
}

/// A process group in a merged trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessInfo {
    /// Group id (viewer `pid`).
    pub pid: u32,
    /// Human name of the source layer ("pi-sim", "mapreduce", ...).
    pub name: String,
}

/// Configuration for a tracing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events held per lane before counted drops start.
    pub capacity_per_lane: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity_per_lane: 1 << 16,
        }
    }
}

/// Allocates lanes and their buffers for one recording layer, then
/// merges everything into a [`Trace`].
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    buffers: Vec<TraceBuffer>,
}

impl TraceRecorder {
    /// Creates a recorder; every lane gets `config.capacity_per_lane`.
    pub fn new(config: &TraceConfig) -> Self {
        TraceRecorder {
            capacity: config.capacity_per_lane,
            buffers: Vec::new(),
        }
    }

    /// Allocates the next lane. Allocation order is lane-id order, so
    /// callers that allocate deterministically get deterministic ids.
    pub fn lane(&mut self, name: impl Into<String>) -> u32 {
        let id = self.buffers.len() as u32;
        self.buffers.push(TraceBuffer::new(id, name, self.capacity));
        id
    }

    /// The buffer recording onto `lane`.
    pub fn buf(&mut self, lane: u32) -> &mut TraceBuffer {
        &mut self.buffers[lane as usize]
    }

    /// Merges all lanes into a [`Trace`].
    pub fn finish(self) -> Trace {
        Trace::from_buffers(self.buffers)
    }
}

/// A merged, stably ordered event stream — the unit both consumers
/// (Chrome export, analyzer) operate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Events sorted by `(time, lane, seq)`.
    pub events: Vec<TraceEvent>,
    /// Lanes in id order.
    pub lanes: Vec<LaneInfo>,
    /// Process groups in pid order (a single-source trace has one).
    pub processes: Vec<ProcessInfo>,
    /// Total events dropped across all lanes.
    pub dropped: u64,
}

impl Trace {
    /// Merges per-worker buffers by the stable `(time, lane, seq)` sort.
    pub fn from_buffers(buffers: Vec<TraceBuffer>) -> Trace {
        let mut trace = Trace {
            events: Vec::new(),
            lanes: Vec::new(),
            processes: vec![ProcessInfo {
                pid: 0,
                name: "trace".to_string(),
            }],
            dropped: 0,
        };
        for buf in buffers {
            trace.extend(buf);
        }
        trace.sort();
        trace
    }

    /// Folds one more buffer into the merged stream, keeping the stable
    /// sort order.
    pub fn absorb(&mut self, buf: TraceBuffer) {
        self.extend(buf);
        self.sort();
    }

    /// Appends a buffer's lane and events, unsorted.
    fn extend(&mut self, buf: TraceBuffer) {
        self.dropped += buf.dropped;
        self.lanes.push(LaneInfo {
            id: buf.lane,
            name: buf.name,
            pid: 0,
            dropped: buf.dropped,
        });
        self.events.extend(buf.events);
    }

    /// Restores lane-id order and the `(time, lane, seq)` event order.
    fn sort(&mut self) {
        self.lanes.sort_by_key(|l| l.id);
        self.events.sort_by_key(|e| (e.time, e.lane, e.seq));
    }

    /// The smallest lane id not yet in use — where a caller layering
    /// extra lanes on top of a machine trace should start.
    pub fn next_lane(&self) -> u32 {
        self.lanes.iter().map(|l| l.id + 1).max().unwrap_or(0)
    }

    /// Merges traces from different layers into one export. Each source
    /// becomes its own process group (its own `pid` row block in
    /// Perfetto) and its lanes are renumbered into a shared id space,
    /// in argument order — deterministic input, deterministic output.
    pub fn merge(parts: Vec<(&str, Trace)>) -> Trace {
        let mut merged = Trace {
            events: Vec::new(),
            lanes: Vec::new(),
            processes: Vec::new(),
            dropped: 0,
        };
        let mut lane_base = 0u32;
        for (pid, (name, part)) in parts.into_iter().enumerate() {
            let pid = pid as u32;
            merged.processes.push(ProcessInfo {
                pid,
                name: name.to_string(),
            });
            merged.dropped += part.dropped;
            // Renumber this part's lanes to sit after everything merged
            // so far; events follow their lanes.
            let part_span = part.lanes.iter().map(|l| l.id + 1).max().unwrap_or(0);
            for lane in part.lanes {
                merged.lanes.push(LaneInfo {
                    id: lane_base + lane.id,
                    name: lane.name,
                    pid,
                    dropped: lane.dropped,
                });
            }
            for mut ev in part.events {
                ev.lane += lane_base;
                merged.events.push(ev);
            }
            lane_base += part_span;
        }
        merged.sort();
        merged
    }

    /// Largest event timestamp (0 for an empty trace): the makespan of
    /// the traced run in its virtual clock.
    pub fn makespan(&self) -> VirtualTime {
        self.events.iter().map(|e| e.time).max().unwrap_or(0)
    }

    /// Largest timestamp among events of one process group. Merged
    /// traces mix clocks (cycles, indices, pairs), so per-group
    /// makespans are what utilization is measured against.
    pub fn makespan_of(&self, pid: u32) -> VirtualTime {
        let in_pid: Vec<u32> = self
            .lanes
            .iter()
            .filter(|l| l.pid == pid)
            .map(|l| l.id)
            .collect();
        self.events
            .iter()
            .filter(|e| in_pid.contains(&e.lane))
            .map(|e| e.time)
            .max()
            .unwrap_or(0)
    }

    /// Serialises to Chrome trace-event JSON (the `traceEvents` array
    /// format), loadable in Perfetto or `chrome://tracing`. Timestamps
    /// are virtual-time units verbatim, metadata events name every
    /// process group and lane, and the rendering is byte-stable: the
    /// same trace always serialises to the same bytes.
    pub fn to_chrome_json(&self) -> String {
        json::document(0, false, |doc| {
            doc.str("displayTimeUnit", "ns");
            doc.object("otherData", Layout::Inline, |o| {
                o.str("schema", SCHEMA);
                o.u64("dropped", self.dropped);
            });
            doc.array("traceEvents", Layout::Block, |events| {
                let metadata = |events: &mut json::Array<'_, '_>, pid, tid, kind, name: &str| {
                    events.object(Layout::Inline, |o| {
                        o.str("ph", "M");
                        o.u64("pid", u64::from(pid));
                        o.u64("tid", u64::from(tid));
                        o.str("name", kind);
                        o.object("args", Layout::Inline, |args| args.str("name", name));
                    });
                };
                for p in &self.processes {
                    metadata(events, p.pid, 0, "process_name", &p.name);
                }
                for lane in &self.lanes {
                    metadata(events, lane.pid, lane.id, "thread_name", &lane.name);
                }
                for ev in &self.events {
                    // Lanes are sorted by id.
                    let pid = self
                        .lanes
                        .binary_search_by_key(&ev.lane, |l| l.id)
                        .map_or(0, |at| self.lanes[at].pid);
                    events.object(Layout::Inline, |o| {
                        o.str("ph", ev.kind.phase());
                        o.u64("pid", u64::from(pid));
                        o.u64("tid", u64::from(ev.lane));
                        o.u64("ts", ev.time);
                        if ev.kind != EventKind::End {
                            o.str("name", &ev.name);
                            o.str("cat", ev.category);
                            if ev.kind == EventKind::Instant {
                                o.str("s", "t");
                            }
                            o.object("args", Layout::Inline, |args| args.u64("v", ev.value));
                        }
                    });
                }
            });
        })
    }

    /// Schema version stamped into `otherData`; bump on layout changes
    /// so golden-digest comparisons fail loudly.
    pub const SCHEMA_VERSION: u32 = 1;

    /// FNV-1a digest of the Chrome JSON bytes — two traces are
    /// byte-identical iff their digests match.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_chrome_json().as_bytes())
    }
}

/// The schema stamp: `pbl-trace/v` and [`Trace::SCHEMA_VERSION`].
const SCHEMA: &str = "pbl-trace/v1";

/// FNV-1a over a byte string: the workspace's shared determinism
/// fingerprint (the same algorithm fingerprints metrics snapshots and
/// replication reports).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a: [`write`](Fnv1a::write) byte strings, then
/// [`finish`](Fnv1a::finish). Any split of the same bytes across writes
/// gives the [`fnv1a`] of their concatenation, so an encoding can be
/// hashed as it is produced, without collecting it first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The offset basis: the hash of no bytes.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_orders_by_time_then_lane_then_seq() {
        let mut a = TraceBuffer::new(0, "a", 16);
        let mut b = TraceBuffer::new(1, "b", 16);
        a.instant(10, "x", category::BUS, 0);
        a.instant(5, "y", category::BUS, 0);
        b.instant(5, "z", category::BUS, 0);
        let t = Trace::from_buffers(vec![a, b]);
        let order: Vec<(u64, u32, u64)> =
            t.events.iter().map(|e| (e.time, e.lane, e.seq)).collect();
        assert_eq!(order, vec![(5, 0, 1), (5, 1, 0), (10, 0, 0)]);
    }

    #[test]
    fn overflow_counts_drops_and_keeps_prefix() {
        let mut b = TraceBuffer::new(0, "tiny", 3);
        for i in 0..10 {
            b.instant(i, "e", category::BUS, i);
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.dropped(), 7);
        let t = Trace::from_buffers(vec![b]);
        assert_eq!(t.dropped, 7);
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.events.last().unwrap().value, 2, "earliest events kept");
    }

    #[test]
    fn chrome_json_is_byte_stable() {
        let build = || {
            let mut rec = TraceRecorder::new(&TraceConfig::default());
            let lane = rec.lane("core/0");
            rec.buf(lane).begin(0, "t0", category::SLICE, 0);
            rec.buf(lane).instant(7, "contention", category::BUS, 18);
            rec.buf(lane).end(50);
            rec.buf(lane).counter(50, "l1_hits", category::CACHE, 4);
            rec.finish()
        };
        let a = build();
        let b = build();
        assert_eq!(a.to_chrome_json(), b.to_chrome_json());
        assert_eq!(a.digest(), b.digest());
        let json = a.to_chrome_json();
        assert!(json.contains("\"schema\": \"pbl-trace/v1\""));
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"ph\": \"E\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"ph\": \"C\""));
        assert!(json.contains("\"thread_name\""));
        // Valid JSON shape: no trailing comma before the closing bracket.
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn schema_stamp_carries_the_version() {
        assert_eq!(SCHEMA, format!("pbl-trace/v{}", Trace::SCHEMA_VERSION));
    }

    #[test]
    fn merge_renumbers_lanes_per_process() {
        let mut a = TraceBuffer::new(0, "core/0", 8);
        a.begin(0, "t0", category::SLICE, 0);
        a.end(10);
        let mut b = TraceBuffer::new(0, "queue", 8);
        b.instant(3, "chunk", category::CHUNK, 16);
        let merged = Trace::merge(vec![
            ("pi-sim", Trace::from_buffers(vec![a])),
            ("replicate", Trace::from_buffers(vec![b])),
        ]);
        assert_eq!(merged.processes.len(), 2);
        assert_eq!(merged.lanes[0].pid, 0);
        assert_eq!(merged.lanes[1].pid, 1);
        assert_eq!(merged.lanes[1].id, 1, "renumbered past pi-sim's lanes");
        assert_eq!(merged.makespan(), 10);
        assert_eq!(merged.makespan_of(1), 3);
        assert!(merged.to_chrome_json().contains("\"replicate\""));
    }
}
