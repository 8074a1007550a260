//! Golden pins for pi-sim's `Machine`: a seeded corpus of program sets
//! whose `RunReport`, metrics snapshot JSON and Chrome trace JSON must
//! keep the exact bytes recorded in `tests/golden/machine.digest`.
//!
//! Every other machine test compares one run with another, which a
//! scheduler change that is wrong in a consistent way passes trivially.
//! These digests were computed once and are compared against fixed
//! values. The corpus mixes compute and RLE blocks, strided reads and
//! writes, atomics, locks and barriers on 1–9 threads over 1–4 cores
//! with quanta from 64 to 50 000 cycles, so quantum renewals, equal-time
//! ties, oversubscription and memory-latency overshoot all occur. A few
//! built sets make quantum ends from different times meet, where only
//! the tie order decides the outcome.

use obs::trace::{fnv1a, TraceConfig};
use pi_sim::machine::{Machine, MachineConfig, RunReport};
use pi_sim::program::Program;

const SETS: u64 = 212;
/// Sets past this one come from [`meeting_set`].
const RANDOM_SETS: u64 = 200;
const QUANTA: [u64; 6] = [64, 250, 1_000, 4_096, 12_500, 50_000];
const SHARED: u64 = 0x10_000;

/// SplitMix64: a self-contained generator, so the corpus never depends
/// on another crate's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// A compute amount in whole and half quanta (or with an odd tail), so
/// threads on different cores often reach quantum boundaries at equal
/// times.
fn compute_amount(rng: &mut Rng, q: u64) -> u64 {
    let odd = rng.below(q);
    rng.below(5) * q + rng.pick(&[0, q / 2, 1, odd])
}

/// Appends one non-synchronising segment.
fn plain_segment(rng: &mut Rng, p: Program, q: u64, private: u64) -> Program {
    let base = if rng.below(2) == 0 { SHARED } else { private };
    let addr = base + rng.below(64) * 8;
    match rng.below(7) {
        0 => p.compute(compute_amount(rng, q)),
        1 => {
            let cost = 1 + rng.below(q);
            p.compute_repeat(cost, rng.below(4 * q / cost + 2))
        }
        2 => p.read_stride(addr, rng.pick(&[8, 64, 4_096]), rng.below(40)),
        3 => p.write_stride(addr, rng.pick(&[8, 64, 4_096]), rng.below(40)),
        4 => p.read(addr),
        5 => p.write(addr),
        _ => p.atomic_rmw(SHARED + rng.below(4) * 64),
    }
}

/// Barrier-separated phases of plain segments and lock-guarded
/// critical sections. Every thread crosses the same barriers and never
/// holds a lock across one, so every set runs to completion.
fn program(rng: &mut Rng, q: u64, threads: u32, phases: u32, private: u64) -> Program {
    let mut p = Program::new();
    for phase in 0..=phases {
        for _ in 0..1 + rng.below(5) {
            p = if rng.below(5) == 0 {
                let lock = rng.below(2) as u32;
                p = p.lock(lock);
                for _ in 0..1 + rng.below(3) {
                    p = plain_segment(rng, p, q, private);
                }
                p.unlock(lock)
            } else {
                plain_segment(rng, p, q, private)
            };
        }
        if phase < phases {
            p = p.barrier(phase % 2, threads);
        }
    }
    p
}

/// Quantum ends a whole quantum apart that meet. Thread 0's second
/// quantum holds a private write, so it ends one quantum after its
/// peers' first; then every thread computes whole quanta until all
/// reach the same shared write in slices that start together. Which of
/// those slices runs first decides whose write misses and whose pays
/// the invalidation.
fn meeting_set(i: u64) -> (MachineConfig, Vec<Program>, TraceConfig) {
    let quantum = [1_000, 4_096, 12_500, 50_000][(i % 4) as usize];
    let q = quantum;
    let config = MachineConfig {
        cores: 2 + (i / 4) as usize,
        quantum,
        ..MachineConfig::pi()
    };
    let programs = (0..config.cores)
        .map(|t| {
            let head = if t == 0 {
                Program::new()
                    .compute(q + q / 2)
                    .write(0x100_000)
                    .compute(2 * q + 3 * q / 4)
            } else {
                Program::new().compute(4 * q + q / 2)
            };
            head.write(SHARED).compute(q / 3)
        })
        .collect();
    (config, programs, TraceConfig::default())
}

/// The machine, programs and trace configuration of corpus set `set`.
fn corpus_set(set: u64) -> (MachineConfig, Vec<Program>, TraceConfig) {
    if set >= RANDOM_SETS {
        return meeting_set(set - RANDOM_SETS);
    }
    let mut rng = Rng(0x6D61_6368_696E_6500 ^ set);
    let quantum = rng.pick(&QUANTA);
    let config = MachineConfig {
        cores: 1 + rng.below(4) as usize,
        quantum,
        // Below the quantum: a switch that eats a whole slice would
        // starve every thread of an oversubscribed core.
        context_switch: rng.pick(&[0, quantum / 50, quantum / 4]),
        mem_ops_per_slice: rng.pick(&[1, 2, 4, 16]),
        ..MachineConfig::pi()
    };
    let threads = 1 + rng.below(9) as u32;
    let phases = rng.below(4) as u32;
    // A quarter of the sets give every thread the same program, which
    // makes equal-time slice ends the rule rather than the exception.
    let identical = rng.below(4) == 0;
    let mut programs: Vec<Program> = Vec::new();
    for t in 0..threads {
        let private = 0x100_000 * (1 + u64::from(t));
        let p = if identical && t > 0 {
            programs[0].clone()
        } else {
            program(&mut rng, config.quantum, threads, phases, private)
        };
        programs.push(p);
    }
    // Small lane capacities exercise the counted-drop path.
    let trace = TraceConfig {
        capacity_per_lane: rng.pick(&[64, 1 << 16]),
    };
    (config, programs, trace)
}

/// Canonical text of every `RunReport` field.
fn report_text(r: &RunReport) -> String {
    let mut out = format!(
        "total={} contended={} episodes={} switches={}\n",
        r.total_cycles, r.contended_lock_acquires, r.barrier_episodes, r.context_switches
    );
    for t in &r.threads {
        out += &format!(
            "thread finish={} compute={} memory={} sync={} sched={}\n",
            t.finish_time, t.compute_cycles, t.memory_cycles, t.sync_wait, t.sched_wait
        );
    }
    for c in &r.cache_stats {
        out += &format!(
            "cache l1={} l2={} mem={} inval={}\n",
            c.l1_hits, c.l2_hits, c.memory_accesses, c.invalidations_received
        );
    }
    out
}

#[test]
fn machine_corpus_matches_the_committed_digests() {
    let mut fresh = Vec::new();
    // Sets that are oversubscribed, renew quanta, contend a lock, and
    // cross a barrier.
    let mut covered = [0u32; 4];
    for set in 0..SETS {
        let (config, programs, tcfg) = corpus_set(set);
        let machine = Machine::new(config);
        let report = machine.run(programs.clone());
        let registry = obs::Registry::new();
        let metered = machine.run_with_metrics(programs.clone(), &registry);
        let (traced, trace) = machine.run_with_trace(programs.clone(), &tcfg);
        let text = report_text(&report);
        assert_eq!(
            text,
            report_text(&metered),
            "set {set}: metrics moved the run"
        );
        assert_eq!(
            text,
            report_text(&traced),
            "set {set}: tracing moved the run"
        );
        fresh.push(format!(
            "{set:03} report=0x{:016x} metrics=0x{:016x} trace=0x{:016x}",
            fnv1a(text.as_bytes()),
            registry.snapshot().digest(),
            trace.digest()
        ));
        covered[0] += u32::from(programs.len() > config.cores);
        covered[1] += u32::from(
            programs
                .iter()
                .any(|p| p.compute_cycles() >= 2 * config.quantum),
        );
        covered[2] += u32::from(report.contended_lock_acquires > 0);
        covered[3] += u32::from(report.barrier_episodes > 0);
    }
    for line in &fresh {
        println!("{line}");
    }
    assert!(covered.iter().all(|&n| n >= 20), "thin corpus: {covered:?}");

    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/machine.digest"
    ))
    .expect("committed machine digests");
    let committed: Vec<&str> = committed.lines().collect();
    assert_eq!(committed.len(), fresh.len(), "corpus size changed");
    let drifted: Vec<String> = fresh
        .iter()
        .zip(&committed)
        .filter(|(f, c)| f.as_str() != **c)
        .map(|(f, c)| format!("  committed {c}\n  fresh     {f}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "{} of {SETS} sets drifted from tests/golden/machine.digest:\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
