//! Ablations 2 and 3 (DESIGN.md): reduction strategy (serial combine vs
//! tree vs per-iteration atomics, in virtual time) and barrier
//! implementation (sense-reversing atomics vs mutex+condvar, real
//! threads), plus core runtime construct costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use parallel_rt::barrier::{CondvarBarrier, SenseBarrier, TeamBarrier};
use parallel_rt::reduction::Sum;
use parallel_rt::sim::{
    simulate_parallel_loop_lowered, simulate_reduction, CostModel, Lowering, ReductionStyle,
    SimOptions,
};
use parallel_rt::{Schedule, Team};

fn print_shape_once() {
    let opts = SimOptions::default();
    eprintln!("Reduction styles on the virtual Pi (20k iterations x 100 cycles, 4 threads):");
    for style in [
        ReductionStyle::SerialCombine,
        ReductionStyle::Tree,
        ReductionStyle::AtomicPerIteration,
    ] {
        eprintln!(
            "  {style:?}: {} cycles",
            simulate_reduction(20_000, 100, 4, style, &opts)
        );
    }
}

fn barrier_roundtrips(barrier: &dyn TeamBarrier, threads: usize, rounds: usize) {
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..rounds {
                    barrier.wait();
                }
            });
        }
    });
}

fn bench_parallel_rt(c: &mut Criterion) {
    print_shape_once();
    let mut group = c.benchmark_group("parallel_rt");
    group.sample_size(10);

    let opts = SimOptions::default();
    for style in [
        ReductionStyle::SerialCombine,
        ReductionStyle::Tree,
        ReductionStyle::AtomicPerIteration,
    ] {
        group.bench_with_input(
            BenchmarkId::new("sim_reduction", format!("{style:?}")),
            &style,
            |b, &s| b.iter(|| simulate_reduction(20_000, 100, 4, s, &opts)),
        );
    }

    group.bench_function("barrier_sense_reversing_2x64", |b| {
        b.iter(|| {
            let barrier = SenseBarrier::new(2);
            barrier_roundtrips(black_box(&barrier), 2, 64);
        })
    });
    group.bench_function("barrier_condvar_2x64", |b| {
        b.iter(|| {
            let barrier = CondvarBarrier::new(2);
            barrier_roundtrips(black_box(&barrier), 2, 64);
        })
    });

    group.bench_function("fork_join_4_threads", |b| {
        let team = Team::new(4);
        b.iter(|| team.parallel(|ctx| black_box(ctx.id())))
    });

    group.bench_function("parallel_for_reduce_100k", |b| {
        let team = Team::new(4);
        b.iter(|| team.parallel_for_reduce(0..100_000, Schedule::StaticBlock, Sum, |i| i as u64))
    });

    // The tentpole scenario: lowering a million-iteration uniform loop.
    // PerIteration builds O(n) ops (the old path, kept as the oracle);
    // Rle builds one op per thread. Virtual-time results are
    // bit-identical; the wall-clock gap between the pair is the
    // measured cost of lowering per iteration.
    for (label, lowering) in [
        ("per_iteration", Lowering::PerIteration),
        ("rle", Lowering::Rle),
    ] {
        group.bench_with_input(
            BenchmarkId::new("uniform_loop_1m", label),
            &lowering,
            |b, &l| {
                b.iter(|| {
                    simulate_parallel_loop_lowered(
                        1_000_000,
                        &CostModel::Uniform(40),
                        Schedule::StaticChunk(1_000),
                        4,
                        &opts,
                        black_box(l),
                    )
                })
            },
        );
    }

    // The two shapes the machine skips whole periods of: eight threads
    // rotating on four cores (the paper's oversubscription question)
    // and eight threads updating one atomic accumulator.
    group.bench_function("linear_loop_8_threads_on_4_cores", |b| {
        let cost = CostModel::Linear { base: 40, slope: 3 };
        b.iter(|| {
            simulate_parallel_loop_lowered(
                16_750,
                black_box(&cost),
                Schedule::Dynamic(16),
                8,
                &opts,
                Lowering::Rle,
            )
        })
    });
    group.bench_function("atomic_reduction_8_threads", |b| {
        b.iter(|| {
            simulate_reduction(
                black_box(4_375),
                165,
                8,
                ReductionStyle::AtomicPerIteration,
                &opts,
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_parallel_rt);
criterion_main!(benches);
