//! Property-based tests (proptest) on the OS layer's three pillars:
//!
//! * **Preemption determinism** — any `(scheduler, timeslice, seed)`
//!   triple replays bit-identically (same report digest, same report).
//! * **Work conservation** — the total retired work of a cohort is
//!   scheduler-invariant: schedulers move work in time, never create
//!   or destroy it.
//! * **Bounded waiting** — under round-robin with free context
//!   switches and compute-only programs, no ready process ever waits
//!   longer than `timeslice × nprocs` for a core.
//! * **Golden pins** — the report and trace of every configuration of
//!   a 324-run corpus match `tests/golden/os.digest`, which fixes the
//!   tie order between a wake and a core's step.

use proptest::prelude::*;

use os::kernel::{Os, OsConfig, OsReport};
use os::process::ProcProgram;
use os::study::SchedKind;
use os::syscall::Signal;

/// splitmix64 — the workspace's cheap deterministic stream expander.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-derived mixed workload: compute bursts, strided memory,
/// yields, and short sleeps, 2–5 processes with split priorities.
fn workload(seed: u64) -> Vec<(ProcProgram, u8)> {
    let nprocs = 2 + (mix(seed) % 4) as usize;
    (0..nprocs)
        .map(|i| {
            let mut prog = ProcProgram::new();
            let h = mix(seed ^ (i as u64).wrapping_mul(0x517C_C1B7_2722_0A95));
            let chunks = 2 + (h % 4);
            for c in 0..chunks {
                let hc = mix(h ^ c);
                prog = prog.compute(10_000 + hc % 90_000);
                match hc % 3 {
                    0 => prog = prog.read_stride((i as u64 + 1) << 22, 64, 32 + hc % 96),
                    1 => prog = prog.yield_cpu(),
                    _ => prog = prog.sleep(5_000 + hc % 45_000),
                }
            }
            (prog.exit(0), (i % 2) as u8)
        })
        .collect()
}

fn run(kind: SchedKind, timeslice: u64, seed: u64) -> OsReport {
    let mut cfg = OsConfig::pi();
    cfg.timeslice = timeslice;
    Os::new(cfg).run(workload(seed), kind.make())
}

fn kind_from(k: u8) -> SchedKind {
    SchedKind::ALL[(k as usize) % SchedKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pillar 1: the run is a pure function of (scheduler, timeslice,
    /// workload) — two executions are bit-identical down to every
    /// per-process counter, not merely digest-equal.
    #[test]
    fn any_scheduler_timeslice_seed_replays_bit_identically(
        k in 0u8..3,
        timeslice in 5_000u64..120_000,
        seed in 0u64..0xFFFF_FFFF_FFFF,
    ) {
        let kind = kind_from(k);
        let a = run(kind, timeslice, seed);
        let b = run(kind, timeslice, seed);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a, b);
    }

    /// Pillar 2: schedulers decide *when* work runs, never *how much*
    /// of it exists. Retired work (compute cycles + memory ops) is
    /// identical across all three schedulers for the same cohort and
    /// equals the per-program sum.
    #[test]
    fn total_retired_work_is_scheduler_invariant(
        timeslice in 5_000u64..120_000,
        seed in 0u64..0xFFFF_FFFF_FFFF,
    ) {
        let expected: u64 = workload(seed)
            .iter()
            .map(|(p, _)| p.work_units())
            .sum();
        for kind in SchedKind::ALL {
            let r = run(kind, timeslice, seed);
            prop_assert_eq!(
                r.retired_work, expected,
                "{} retired {} of {}", kind.label(), r.retired_work, expected
            );
            prop_assert!(r.procs.iter().all(|p| p.exit_code == Some(0)));
        }
    }

    /// Pillar 3: round-robin bounded waiting. With compute-only
    /// programs (no blocking, no contention variance) and free context
    /// switches, a FIFO queue guarantees no ready process waits longer
    /// than one full rotation: `timeslice × nprocs`.
    #[test]
    fn round_robin_never_starves_beyond_one_rotation(
        cores in 1usize..=4,
        nprocs in 2usize..=6,
        timeslice in 2_000u64..40_000,
        seed in 0u64..0xFFFF_FFFF_FFFF,
    ) {
        let mut cfg = OsConfig::pi_with_cores(cores);
        cfg.timeslice = timeslice;
        cfg.context_switch_cost = 0;
        let procs = (0..nprocs)
            .map(|i| {
                let h = mix(seed ^ i as u64);
                (ProcProgram::new().compute(20_000 + h % 180_000), 0)
            })
            .collect();
        let r = Os::new(cfg).run(procs, SchedKind::RoundRobin.make());
        let bound = timeslice * nprocs as u64;
        for p in &r.procs {
            prop_assert!(
                p.max_ready_wait <= bound,
                "pid {} waited {} > bound {} (cores {cores}, nprocs {nprocs}, timeslice {timeslice})",
                p.pid, p.max_ready_wait, bound
            );
        }
    }
}

/// The oversubscription acceptance row from the issue, as a plain
/// integration test: C = 4, P = 5 under each scheduler produces a
/// digest that is bit-identical across reruns.
#[test]
fn oversubscription_cells_replay_bit_identically() {
    for kind in SchedKind::ALL {
        let a = os::study::run_oversub(4, 5, kind);
        let b = os::study::run_oversub(4, 5, kind);
        assert_eq!(a.digest(), b.digest(), "{} drifted", kind.label());
        assert_eq!(a, b);
    }
}

/// Op-by-op generator for the golden corpus: a hash chain over
/// [`mix`], so the corpus depends on no other crate's stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = mix(self.0);
        self.0 % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// The address every golden process shares, so atomics and shared
/// strides pay coherence.
const SHARED: u64 = 0x10_000;

/// One op that neither forks nor waits. Compute amounts and sleeps are
/// round numbers next to the trap cost (200) and the switch costs, so a
/// wake often lands on the same cycle as a quantum end on some core;
/// without `memory`, no cache latency moves a process off that grid.
fn golden_op(
    rng: &mut Rng,
    prog: ProcProgram,
    memory: bool,
    pids: u64,
    private: u64,
) -> ProcProgram {
    let base = if rng.below(2) == 0 { SHARED } else { private };
    match rng.below(16) {
        3..=7 if !memory => prog.compute(rng.pick(&[1_000, 2_000, 5_000])),
        0..=2 | 14 => prog.compute(rng.pick(&[1_000, 2_000, 3_000, 5_000, 10_000, 24_000, 50_000])),
        3 => prog.compute_repeat(rng.pick(&[10, 250]), rng.below(200)),
        4 => prog.read_stride(base, rng.pick(&[8, 64, 4_096]), 1 + rng.below(96)),
        5 => prog.write_stride(base, rng.pick(&[8, 64, 4_096]), 1 + rng.below(96)),
        6 => prog.atomic_rmw(SHARED + rng.below(4) * 64),
        7 if rng.below(2) == 0 => prog.read(base + rng.below(64) * 8),
        7 => prog.write(base + rng.below(64) * 8),
        8 | 9 | 15 => prog.sleep(rng.pick(&[
            0, 800, 1_000, 1_800, 2_000, 3_000, 4_000, 5_000, 50_000, 51_000, 200_000,
        ])),
        10 => prog.yield_cpu(),
        11 => prog.kill(rng.below(pids) as u32),
        _ => prog.signal(
            rng.below(pids) as u32,
            rng.pick(&[Signal::Interrupt, Signal::Terminate, Signal::User(1)]),
        ),
    }
}

/// Golden workload `w`: 2–6 root processes of plain ops, half of them
/// ending in a fork whose parent may wait for the child or orphan it.
/// Every third workload issues no memory ops.
fn golden_workload(w: u64) -> Vec<(ProcProgram, u8)> {
    let mut rng = Rng(0x6F73_676F_6C64_0000 ^ w);
    let memory = !w.is_multiple_of(3);
    let roots = 2 + rng.below(5);
    // Kill and signal targets reach the first forked children too.
    let pids = roots + 3;
    (0..roots)
        .map(|i| {
            let private = 0x100_000 * (1 + i);
            let mut prog = ProcProgram::new();
            for _ in 0..1 + rng.below(5) {
                prog = golden_op(&mut rng, prog, memory, pids, private);
            }
            if rng.below(2) == 0 {
                let waits = rng.below(2) == 0;
                let mut parent = ProcProgram::new();
                if waits {
                    parent = parent.wait();
                }
                for _ in 0..rng.below(3) {
                    parent = golden_op(&mut rng, parent, memory, pids, private);
                }
                parent = parent.exit(0);
                prog = prog.fork().skip_if_child(parent.ops.len());
                prog.ops.extend(parent.ops);
                for _ in 0..1 + rng.below(3) {
                    prog = golden_op(&mut rng, prog, memory, pids, private + 0x80_000);
                }
                prog = prog.exit(rng.pick(&[0, 7]));
            } else if rng.below(2) == 0 {
                prog = prog.exit(rng.pick(&[0, 3]));
            }
            (prog, rng.below(3) as u8)
        })
        .collect()
}

/// Pins every OS report and trace byte of a 324-configuration corpus:
/// 9 workloads under the three schedulers on 1, 2 and 4 cores with
/// timeslices 2 000 and 50 000 and switch costs 0 and 1 000. The
/// workloads sleep, fork and wait, kill, signal, yield and issue
/// strided and atomic memory ops, so these digests fix when a woken
/// process joins the run queue relative to each core's quantum end,
/// which no run-versus-run test can tell.
#[test]
fn os_corpus_matches_the_committed_digests() {
    let mut fresh = Vec::new();
    // Runs that kill, fork, preempt, and yield.
    let mut covered = [0u32; 4];
    for kind in SchedKind::ALL {
        for cores in [1, 2, 4] {
            for timeslice in [2_000, 50_000] {
                for switch in [0, 1_000] {
                    let mut cfg = OsConfig::pi_with_cores(cores);
                    cfg.timeslice = timeslice;
                    cfg.context_switch_cost = switch;
                    let os = Os::new(cfg);
                    for w in 0..9 {
                        let report = os.run(golden_workload(w), kind.make());
                        let (traced, trace) = os.run_traced(golden_workload(w), kind.make());
                        let label =
                            format!("{}/c{cores}/q{timeslice}/s{switch}/w{w}", kind.label());
                        assert_eq!(report, traced, "{label}: tracing moved the run");
                        fresh.push(format!(
                            "{:03} {label} report=0x{:016x} trace=0x{:016x}",
                            fresh.len(),
                            report.digest(),
                            trace.digest()
                        ));
                        let roots = golden_workload(w).len();
                        covered[0] +=
                            u32::from(report.procs.iter().any(|p| p.exit_code == Some(-9)));
                        covered[1] += u32::from(report.procs.len() > roots);
                        covered[2] += u32::from(report.involuntary_preemptions > 0);
                        covered[3] += u32::from(report.voluntary_yields > 0);
                    }
                }
            }
        }
    }
    for line in &fresh {
        println!("{line}");
    }
    assert!(covered.iter().all(|&n| n >= 40), "thin corpus: {covered:?}");

    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/os.digest"
    ))
    .expect("committed OS digests");
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
        "{} of {} configurations drifted from tests/golden/os.digest:\n{}",
        drifted.len(),
        fresh.len(),
        drifted.join("\n")
    );
}
