//! The substrate itself: event throughput of the simulated Pi, cache
//! hierarchy access costs, and the speedup-curve generator (ablation 4:
//! simulated-vs-real backend consistency is asserted in the integration
//! tests; here the simulator's own cost is measured).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pi_sim::cache::Hierarchy;
use pi_sim::machine::{Machine, MachineConfig};
use pi_sim::perf::scaling_table;
use pi_sim::program::{Op, Program};

fn print_shape_once() {
    // The headline speedup curve: same total work over 1, 2, 4, 5
    // software threads on the 4-core machine.
    let total: u64 = 8_000_000;
    let series: Vec<(usize, f64)> = [1usize, 2, 4, 5]
        .iter()
        .map(|&t| {
            let programs: Vec<Program> = (0..t)
                .map(|_| Program::new().compute(total / t as u64))
                .collect();
            (t, Machine::pi().run(programs).total_cycles as f64)
        })
        .collect();
    eprintln!("virtual-Pi scaling (compute-bound, 4 cores):");
    for row in scaling_table(&series) {
        eprintln!(
            "  threads={} time={:>9} speedup={:.2} efficiency={:.2}",
            row.processors, row.time, row.speedup, row.efficiency
        );
    }
}

fn bench_pi_sim(c: &mut Criterion) {
    print_shape_once();
    let mut group = c.benchmark_group("pi_sim");
    group.sample_size(10);

    for &threads in &[1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("compute_bound_run", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let programs: Vec<Program> =
                        (0..t).map(|_| Program::new().compute(1_000_000)).collect();
                    Machine::pi().run(black_box(programs))
                })
            },
        );
    }

    group.bench_function("barrier_heavy_run", |b| {
        b.iter(|| {
            let programs: Vec<Program> = (0..4)
                .map(|_| {
                    let mut p = Program::new();
                    for _ in 0..50 {
                        p = p.compute(1_000).barrier(0, 4);
                    }
                    p
                })
                .collect();
            Machine::pi().run(black_box(programs))
        })
    });

    group.bench_function("cache_hierarchy_100k_accesses", |b| {
        b.iter(|| {
            let mut h = Hierarchy::pi(4);
            for i in 0..100_000u64 {
                h.access((i % 4) as usize, (i * 97) % 65_536, i % 5 == 0);
            }
            black_box(h.stats[0])
        })
    });

    // An AtomicPerIteration reduction's shape: every round, each thread
    // computes, then updates the one shared accumulator line.
    group.bench_function("atomic_rmw_pingpong", |b| {
        b.iter(|| {
            let programs: Vec<Program> = (0..4)
                .map(|_| {
                    let mut p = Program::new();
                    for _ in 0..1_000 {
                        p = p.compute(60).atomic_rmw(0x8000);
                    }
                    p
                })
                .collect();
            Machine::pi().run(black_box(programs))
        })
    });

    group.bench_function("memory_heavy_run", |b| {
        b.iter(|| {
            let programs: Vec<Program> = (0..4u64)
                .map(|t| {
                    (0..500)
                        .map(|i| Op::Read((t * 131_072 + i * 64) % 262_144))
                        .collect()
                })
                .collect();
            Machine::pi().run(black_box(programs))
        })
    });

    group.bench_function("oversubscribed_16_threads", |b| {
        b.iter(|| {
            let programs: Vec<Program> = (0..16).map(|_| Program::new().compute(100_000)).collect();
            Machine::new(MachineConfig::pi()).run(black_box(programs))
        })
    });

    // The tentpole scenario: a million-iteration uniform loop per thread,
    // lowered the old way (one Compute op per iteration) and the new way
    // (one ComputeRepeat block per thread). Timing on the virtual machine
    // is bit-identical; the wall-clock gap between the pair is the
    // measured cost of per-op dispatch.
    for (label, rle) in [("per_op", false), ("rle", true)] {
        group.bench_with_input(
            BenchmarkId::new("uniform_loop_1m_x4", label),
            &rle,
            |b, &rle| {
                b.iter(|| {
                    let programs: Vec<Program> = (0..4)
                        .map(|_| {
                            if rle {
                                Program::new().compute_repeat(40, 1_000_000)
                            } else {
                                (0..1_000_000).map(|_| Op::Compute(40)).collect()
                            }
                        })
                        .collect();
                    Machine::pi().run(black_box(programs))
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_pi_sim);
criterion_main!(benches);
