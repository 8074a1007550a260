//! The sharded-cluster serving hot paths: consistent-hash ring lookup,
//! a cold vs cache-warm smoke day through the 4-shard cluster, a
//! single-flight day where every tenant submits the identical job so
//! one dispatch computes and every other one joins it, and one
//! computed job of each engine kind (a served job's whole cost,
//! metrics JSON included), and that metrics JSON on its own. All inputs
//! are seeded, so iteration-to-iteration work is bit-identical.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use parallel_rt::sim::{simulate_parallel_loop_with_metrics, CostModel, SimOptions};
use parallel_rt::Schedule;

use serve::cluster::{Cluster, ClusterConfig, HashRing};
use serve::exec::execute;
use serve::spec::{CostSpec, JobSpec, MrWorkload, ReductionStyleSpec, ScheduleSpec};
use serve::workload::{semester_day, JobUniverse, SemesterConfig};

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    // Ring lookup: 1k well-spread keys against the default 8 x 128
    // ring — the per-submission routing cost.
    let ring = HashRing::new(8, 128);
    let keys: Vec<u64> = (0..1024u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    group.bench_function("ring_route_8x128_1k_keys", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &k in &keys {
                acc = acc.wrapping_add(u64::from(ring.route(black_box(k))));
            }
            acc
        })
    });
    group.bench_function("ring_build_8x128", |b| {
        b.iter(|| HashRing::new(black_box(8), black_box(128)))
    });

    let cfg = SemesterConfig::smoke();
    let universe = JobUniverse::new(cfg.seed, cfg.unique_jobs);
    let day = semester_day(&cfg, &universe, 1);

    // Cold day: fresh cluster every iteration, so the engines compute
    // each distinct job once (routing + WFQ + execute + fill).
    group.bench_function("cluster_day_cold_4x2", |b| {
        b.iter(|| {
            let cluster = Cluster::new(ClusterConfig::with_shards(4, 2));
            black_box(cluster.run_day(black_box(&day)).stats.computed)
        })
    });

    // Warm day: the shared L2 already holds every unique job, so this
    // is the pure route + L1/L2 claim path the cluster runs at steady
    // state.
    let warm = Cluster::new(ClusterConfig::with_shards(4, 2));
    warm.run_day(&day);
    group.bench_function("cluster_day_warm_4x2", |b| {
        b.iter(|| black_box(warm.run_day(black_box(&day)).stats.l1_hits))
    });

    // Single-flight day: a one-job universe means every tenant submits
    // the identical spec; one dispatch computes and every other one
    // joins it locally or across shards.
    let mono_universe = JobUniverse::new(cfg.seed, 1);
    let mono_day = semester_day(&cfg, &mono_universe, 1);
    group.bench_function("single_flight_day_4x2", |b| {
        b.iter(|| {
            let cluster = Cluster::new(ClusterConfig::with_shards(4, 2));
            black_box(cluster.run_day(black_box(&mono_day)).stats.computed)
        })
    });

    // One computed job per engine, shaped like the semester universe's
    // specs: an 8-thread dynamic loop on a triangular cost, an 8-thread
    // per-iteration-atomic reduction, and a 12-document word count.
    let jobs = [
        (
            "execute_loop_dynamic_8_threads",
            JobSpec::LoopSim {
                iterations: 9_000,
                cost: CostSpec::Linear { base: 50, slope: 2 },
                schedule: ScheduleSpec::Dynamic { chunk: 16 },
                threads: 8,
            },
        ),
        (
            "execute_reduction_atomic_8_threads",
            JobSpec::ReductionSim {
                iterations: 2_500,
                iter_cost: 90,
                threads: 8,
                style: ReductionStyleSpec::AtomicPerIteration,
            },
        ),
        (
            "execute_wordcount_12_docs",
            JobSpec::MapReduce {
                workload: MrWorkload::WordCount,
                docs: 12,
                seed: 2_010,
                map_workers: 4,
                reduce_workers: 2,
            },
        ),
    ];
    for (name, spec) in &jobs {
        group.bench_function(*name, |b| b.iter(|| execute(black_box(spec))));
    }

    // The metrics JSON alone: a loop job's 12-metric snapshot rendered
    // with its digest line, as every computed job's result carries it.
    let registry = obs::Registry::new();
    simulate_parallel_loop_with_metrics(
        4_096,
        &CostModel::Linear { base: 40, slope: 1 },
        Schedule::Dynamic(16),
        4,
        &SimOptions::default(),
        &registry,
    );
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.metrics.len(), 12);
    group.bench_function("snapshot_json_digested_12_metrics", |b| {
        b.iter(|| black_box(&snapshot).to_json_with_digest())
    });

    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
