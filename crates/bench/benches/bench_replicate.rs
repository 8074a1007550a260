//! The replication engine's cost profile: raw fan-out overhead, batch
//! cohort generation, the sharded resampling kernels against their
//! serial counterparts, and a small end-to-end replication batch.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use classroom::{CohortData, StudyConfig};
use pbl_core::replicate::{run_replication_batched, ReplicationConfig};
use replicate::ReplicationEngine;
use stats::resample::{
    bootstrap_ci, bootstrap_ci_par, permutation_test_paired, permutation_test_paired_par,
    permutation_test_two_sample, permutation_test_two_sample_par,
};

fn cohort_like_samples() -> (Vec<f64>, Vec<f64>) {
    let first: Vec<f64> = (0..124)
        .map(|i| 4.0 + 0.2 * ((i * 37 % 17) as f64 / 17.0 - 0.5))
        .collect();
    let second: Vec<f64> = first
        .iter()
        .enumerate()
        .map(|(i, x)| x + 0.1 + 0.05 * ((i * 13 % 11) as f64 / 11.0 - 0.5))
        .collect();
    (first, second)
}

fn bench_replicate(c: &mut Criterion) {
    let mut group = c.benchmark_group("replicate");
    group.sample_size(10);

    // Raw engine overhead: trivial bodies, so this times the queue.
    group.bench_function("engine_overhead_1000_replicates", |b| {
        let engine = ReplicationEngine::new(4);
        b.iter(|| engine.run(black_box(1_000), 7, |ctx| ctx.seed.wrapping_mul(3)))
    });

    group.bench_function("cohort_batch_32", |b| {
        let config = StudyConfig::default();
        b.iter(|| CohortData::generate_batch(black_box(&config), 32, 4))
    });

    let (first, second) = cohort_like_samples();
    group.bench_function("paired_perm_4000_serial", |b| {
        b.iter(|| permutation_test_paired(black_box(&first), black_box(&second), 4_000, 42))
    });
    group.bench_function("paired_perm_4000_par1", |b| {
        b.iter(|| permutation_test_paired_par(black_box(&first), black_box(&second), 4_000, 42, 1))
    });
    group.bench_function("two_sample_perm_1000_serial", |b| {
        b.iter(|| permutation_test_two_sample(black_box(&first), black_box(&second), 1_000, 42))
    });
    group.bench_function("two_sample_perm_1000_par1", |b| {
        b.iter(|| {
            permutation_test_two_sample_par(black_box(&first), black_box(&second), 1_000, 42, 1)
        })
    });
    let diffs: Vec<f64> = second.iter().zip(&first).map(|(s, f)| s - f).collect();
    let mean = |d: &[f64]| d.iter().sum::<f64>() / d.len() as f64;
    group.bench_function("bootstrap_1000_serial", |b| {
        b.iter(|| bootstrap_ci(black_box(&diffs), mean, 0.95, 1_000, 42))
    });
    group.bench_function("bootstrap_1000_par1", |b| {
        b.iter(|| bootstrap_ci_par(black_box(&diffs), mean, 0.95, 1_000, 42, 1))
    });

    group.bench_function("replication_batch_16_full", |b| {
        let cfg = ReplicationConfig {
            replicates: 16,
            threads: 4,
            ..ReplicationConfig::default()
        };
        b.iter(|| run_replication_batched(black_box(&cfg)))
    });

    group.finish();
}

criterion_group!(benches, bench_replicate);
criterion_main!(benches);
