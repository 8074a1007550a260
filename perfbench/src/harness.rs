//! Measurement plumbing shared by the workloads: the run budget, the
//! CPU-time stopwatch, unit samples, nearest-rank percentiles, peak
//! resident memory and the one-line JSON result.

use std::collections::BTreeMap;
use std::ffi::{c_int, c_long};
use std::time::{Duration, Instant};

/// Units a run must complete before it may stop, so the p90 always has
/// ten samples beyond it.
pub const MIN_UNITS: usize = 100;

/// Wall time after which a run stops starting new units even if it has
/// not reached [`MIN_UNITS`]: keeps every run inside three minutes.
const HARD_CAP: Duration = Duration::from_secs(150);

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// The measuring window of one run.
pub struct Budget {
    start: Instant,
    window: Duration,
}

impl Budget {
    /// Starts a window of `seconds`.
    pub fn start(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            window: Duration::from_secs_f64(seconds),
        }
    }

    /// True while the run should start another unit (or another whole
    /// semester): the window is open or fewer than [`MIN_UNITS`] units
    /// are done, and the hard cap has not passed.
    pub fn more(&self, units_done: usize) -> bool {
        let elapsed = self.start.elapsed();
        elapsed < HARD_CAP && (elapsed < self.window || units_done < MIN_UNITS)
    }

    /// True once the window is closed (ignoring [`MIN_UNITS`]).
    pub fn window_closed(&self) -> bool {
        self.start.elapsed() >= self.window
    }

    /// True when another batch of units lasting `last` would still end
    /// inside the window: whole semesters stop before, not after, it.
    pub fn room_for(&self, last: Duration) -> bool {
        self.start.elapsed() + last <= self.window && self.start.elapsed() + last < HARD_CAP
    }
}

/// CPU time this process has used, summed over all its threads, live
/// and exited (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Timings that count are taken on this clock, not on wall time. On a
/// shared virtual machine wall time also counts the time the host ran
/// another guest on our vCPUs (steal, which a Linux guest with
/// paravirtual time accounting leaves out of task CPU time) and the
/// time another process held our core; both vary from run to run by
/// more than any bound worth setting.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Times a stretch of work on both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_time(),
        }
    }

    /// CPU milliseconds since the start, all threads summed.
    pub fn cpu_ms(&self) -> f64 {
        (cpu_time() - self.cpu).as_secs_f64() * 1e3
    }

    /// `(CPU, wall)` milliseconds since the start.
    pub fn lap_ms(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64() * 1e3;
        (self.cpu_ms(), wall)
    }
}

/// `(steal, total)` jiffies of every CPU of the host so far, from the
/// `cpu` line of `/proc/stat`; `(0, 0)` where the kernel has no such
/// file.
pub fn host_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`0 < p <= 1`) of unsorted samples: the
/// smallest sample with at least `p·n` samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Unit times and operation counts of one measured pass.
///
/// Units repeat: the same day of every semester, the same study of
/// every cycle, the same cell of every sweep. Each unit has a key
/// naming which one it is, and the end-to-end figures are taken over
/// each key's median CPU time, so a burst of interference from outside
/// the process moves a figure only if it lasts for half of a key's
/// repetitions.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per key: the operations one repetition completes, and the CPU
    /// milliseconds of each repetition.
    by_key: BTreeMap<u64, (f64, Vec<f64>)>,
    /// Wall milliseconds of every unit, in run order.
    wall_ms: Vec<f64>,
    /// Operations completed over the whole pass.
    ops_done: f64,
    /// Operations attempted, for `ok_frac`.
    pub ops_attempted: f64,
    /// Operations refused, rejected or failing their check.
    pub ops_failed: f64,
    /// Units attempted.
    pub units: u64,
    /// Units that panicked or failed their output check.
    pub units_failed: u64,
}

impl Pass {
    /// Records a unit of key `key` that took `(cpu_ms, wall_ms)` and
    /// completed `ops` operations out of `attempted`.
    pub fn unit(&mut self, key: u64, (cpu_ms, wall_ms): (f64, f64), ops: f64, attempted: f64) {
        let entry = self.by_key.entry(key).or_insert((ops, Vec::new()));
        entry.0 = ops;
        entry.1.push(cpu_ms);
        self.wall_ms.push(wall_ms);
        self.ops_done += ops;
        self.units += 1;
        self.ops_attempted += attempted;
        self.ops_failed += attempted - ops;
    }

    /// Records a unit that panicked or failed its output check, with
    /// the operations it carried.
    pub fn failed_unit(&mut self, ops_attempted: f64) {
        self.units += 1;
        self.units_failed += 1;
        self.ops_attempted += ops_attempted;
        self.ops_failed += ops_attempted;
    }

    /// CPU milliseconds of every unit recorded.
    fn cpu_samples(&self) -> Vec<f64> {
        self.by_key
            .values()
            .flat_map(|(_, ms)| ms.iter().copied())
            .collect()
    }

    /// Wall milliseconds of every unit recorded.
    pub fn wall_samples(&self) -> &[f64] {
        &self.wall_ms
    }

    /// What the pass did on the wall clock, for the notes: throughput
    /// over the units' summed wall time, and CPU time per wall time.
    pub fn wall_note(&self) -> String {
        let wall_s = self.wall_ms.iter().sum::<f64>() / 1e3;
        let cpu_s = self.cpu_samples().iter().sum::<f64>() / 1e3;
        format!(
            "wall clock (not a metric): {:.6e} ops/s over {wall_s:.3} s of units, {:.3} CPU s per wall s",
            self.ops_done / wall_s.max(f64::MIN_POSITIVE),
            cpu_s / wall_s.max(f64::MIN_POSITIVE)
        )
    }

    /// Marks every unit failed (a wrong output discredits the pass).
    pub fn fail_all(&mut self) {
        self.units_failed = self.units;
        self.ops_failed = self.ops_attempted;
    }

    /// The end-to-end metrics of this pass (everything but `setup_s`
    /// and `peak_rss_mb`, which belong to the run).
    ///
    /// `ops_per_cpu_s` is one repetition of every key's operations over
    /// the sum of the keys' median CPU times. For the percentiles every
    /// unit is charged its key's median, which keeps a unit's own noise
    /// out of the tail: the sample count is the number of units.
    pub fn end_to_end(&self, out: &mut Metrics) {
        let costs: Vec<(f64, usize)> = self
            .by_key
            .values()
            .map(|(_, ms)| (median(ms), ms.len()))
            .collect();
        let busy_s: f64 = costs.iter().map(|(ms, _)| ms).sum::<f64>() / 1e3;
        let ops: f64 = self.by_key.values().map(|(ops, _)| ops).sum();
        out.set(
            "ops_per_cpu_s",
            if busy_s > 0.0 { ops / busy_s } else { 0.0 },
        );
        let charged: Vec<f64> = costs
            .iter()
            .flat_map(|&(ms, reps)| std::iter::repeat_n(ms, reps))
            .collect();
        if !charged.is_empty() {
            out.set("unit_cpu_p50_ms", percentile(&charged, 0.50));
            out.set("unit_cpu_p90_ms", percentile(&charged, 0.90));
        }
        let ok = if self.ops_attempted > 0.0 {
            1.0 - self.ops_failed / self.ops_attempted
        } else {
            0.0
        };
        out.set("ok_frac", ok);
    }
}

/// Named metric values; units live in the metric tables of `main`.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check held.
    pub correct: bool,
    /// Units attempted (the sample count of the latency percentiles).
    pub attempted: u64,
    /// Units that panicked or failed their output check.
    pub failed: u64,
    /// The metrics this workload measured.
    pub metrics: Metrics,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
}

/// Runs `f`, turning a panic into `None` so one bad unit counts as a
/// failure instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}
