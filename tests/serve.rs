//! Integration tests for the serve layer: the acceptance criteria of
//! the cluster's determinism contract and cache correctness property
//! tests.

use std::collections::HashSet;
use std::sync::Arc;

use obs::trace::fnv1a;
use proptest::prelude::*;
use serve::cluster::{self, Cluster, ClusterConfig, HashRing};
use serve::workload::{course_week, Arrival, SemesterConfig};
use serve::{
    ClusterOutcome, ClusterSource, CostSpec, JobResult, JobSpec, MrWorkload, ReductionStyleSpec,
    ScheduleSpec, Submission,
};

/// The course week's server: one shard with `workers` workers.
fn one_shard(workers: usize) -> Cluster {
    Cluster::new(ClusterConfig::with_shards(1, workers))
}

/// A cluster with no caches and no single-flight: every admitted job
/// computes.
fn cold_cluster() -> Cluster {
    let mut config = ClusterConfig::with_shards(1, 2);
    config.l1_capacity = 0;
    config.l2_capacity_per_shard = 0;
    config.single_flight = false;
    Cluster::new(config)
}

/// The served result and its source, for an arrival that must not be
/// rejected.
fn served(outcome: &ClusterOutcome) -> (Arc<JobResult>, ClusterSource) {
    match outcome {
        ClusterOutcome::Done(done) => (Arc::clone(&done.result), done.source),
        ClusterOutcome::Rejected(reason) => panic!("rejected: {reason:?}"),
    }
}

/// The headline acceptance criterion: the full course week — day
/// digests, dispatch orders and final cache state — is bit-identical
/// across 1/2/4/8 workers.
#[test]
fn course_week_is_bit_identical_across_worker_counts() {
    let week = course_week();
    let serve_all = |workers: usize| {
        let cluster = one_shard(workers);
        let mut digests = Vec::new();
        let mut dispatches = Vec::new();
        for day in &week {
            let report = cluster.run_day(day);
            digests.push(report.digest());
            dispatches.push(report.dispatch.clone());
        }
        (digests, dispatches, cluster.state_digest())
    };
    let reference = serve_all(1);
    for workers in [2, 4, 8] {
        assert_eq!(serve_all(workers), reference, "{workers} workers");
    }
}

/// The other headline criterion: the course-week cache hit rate
/// clears 50% (the workload's reuse structure actually gives ~89%).
#[test]
fn course_week_hit_rate_is_at_least_half() {
    let cluster = one_shard(4);
    let mut accepted = 0;
    let mut reused = 0;
    for day in course_week() {
        let stats = cluster.run_day(&day).stats;
        accepted += stats.accepted;
        reused += stats.l1_hits + stats.l2_hits + stats.local_joins + stats.cross_joins;
    }
    let rate = reused as f64 / accepted as f64;
    assert!(rate >= 0.5, "hit rate {rate:.3} below the acceptance bar");
}

/// Cache-hit byte-identity across days: a second day serves the job
/// from the cache, and its payload AND embedded metrics snapshot equal
/// the cold computation's byte for byte.
#[test]
fn cache_hit_replays_the_cold_bytes_exactly() {
    let cluster = one_shard(4);
    let day = [Arrival {
        vt: 0,
        sub: Submission::new(
            0,
            1,
            JobSpec::MapReduce {
                workload: MrWorkload::InvertedIndex,
                docs: 10,
                seed: 5,
                map_workers: 3,
                reduce_workers: 2,
            },
        ),
    }];
    let serve_once = || served(&cluster.run_day(&day).outcomes[0]);
    let (cold, ev_cold) = serve_once();
    assert_eq!(ev_cold, ClusterSource::Computed);
    let (warm, ev_warm) = serve_once();
    assert_eq!(ev_warm, ClusterSource::L1Hit);
    assert_eq!(cold.payload, warm.payload);
    assert_eq!(cold.metrics_json, warm.metrics_json);
    assert_eq!(cold.digest(), warm.digest());
}

fn loop_spec(fields: (u64, u8, u64, u64, u8, u32, u32)) -> JobSpec {
    let (iterations, cost_tag, a, b, sched_tag, chunk, threads) = fields;
    let cost = match cost_tag % 3 {
        0 => CostSpec::Uniform { cycles: a },
        1 => CostSpec::Linear { base: a, slope: b },
        _ => CostSpec::Alternating { even: a, odd: b },
    };
    let schedule = match sched_tag % 4 {
        0 => ScheduleSpec::StaticBlock,
        1 => ScheduleSpec::StaticChunk { chunk },
        2 => ScheduleSpec::Dynamic { chunk },
        _ => ScheduleSpec::Guided { min_chunk: chunk },
    };
    JobSpec::LoopSim {
        iterations,
        cost,
        schedule,
        threads,
    }
}

fn other_spec(fields: (u8, u64, u64, u32, u32)) -> JobSpec {
    let (tag, a, b, c, d) = fields;
    match tag % 4 {
        0 => JobSpec::ReductionSim {
            iterations: a,
            iter_cost: b,
            threads: c,
            style: match d % 3 {
                0 => ReductionStyleSpec::SerialCombine,
                1 => ReductionStyleSpec::Tree,
                _ => ReductionStyleSpec::AtomicPerIteration,
            },
        },
        1 => JobSpec::MapReduce {
            workload: match d % 3 {
                0 => MrWorkload::WordCount,
                1 => MrWorkload::InvertedIndex,
                _ => MrWorkload::Grep {
                    pattern: format!("p{a}"),
                },
            },
            docs: c,
            seed: b,
            map_workers: 1 + (a % 8) as u32,
            reduce_workers: 1 + (b % 8) as u32,
        },
        2 => JobSpec::Replication {
            replicates: c,
            num_students: d,
            master_seed: a,
            permutations: (b % 1_000) as u32,
            bootstrap_reps: (a % 1_000) as u32,
            section_permutations: (b % 500) as u32,
        },
        _ => JobSpec::Report {
            artefact: pbl_core::experiments::ARTEFACTS[(a % 20) as usize].to_string(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Digest injectivity over a generated spec space: any two specs
    /// that are structurally different have different canonical bytes
    /// and different digests; equal specs digest equally. (The
    /// encoding is injective by construction — tag bytes plus
    /// fixed-width fields — so a digest collision here would be an
    /// FNV collision over a few dozen bytes: astronomically unlikely
    /// and worth failing loudly on.)
    #[test]
    fn distinct_loop_specs_get_distinct_digests(
        a in (1u64..1_000_000, 0u8..3, 1u64..10_000, 0u64..10_000, 0u8..4, 1u32..512, 1u32..64),
        b in (1u64..1_000_000, 0u8..3, 1u64..10_000, 0u64..10_000, 0u8..4, 1u32..512, 1u32..64),
    ) {
        let (sa, sb) = (loop_spec(a), loop_spec(b));
        prop_assert_eq!(sa.digest(), fnv1a(&sa.canonical_bytes()));
        prop_assert_eq!(sb.digest(), fnv1a(&sb.canonical_bytes()));
        if sa == sb {
            prop_assert_eq!(sa.canonical_bytes(), sb.canonical_bytes());
            prop_assert_eq!(sa.digest(), sb.digest());
        } else {
            prop_assert_ne!(sa.canonical_bytes(), sb.canonical_bytes());
            prop_assert_ne!(sa.digest(), sb.digest());
        }
    }

    /// Cross-variant injectivity: specs from different engine families
    /// never collide with each other or with loop specs.
    #[test]
    fn distinct_variants_get_distinct_digests(
        l in (1u64..1_000_000, 0u8..3, 1u64..10_000, 0u64..10_000, 0u8..4, 1u32..512, 1u32..64),
        x in (0u8..4, 0u64..1_000_000, 0u64..1_000_000, 1u32..512, 1u32..512),
        y in (0u8..4, 0u64..1_000_000, 0u64..1_000_000, 1u32..512, 1u32..512),
    ) {
        let (sl, sx, sy) = (loop_spec(l), other_spec(x), other_spec(y));
        for s in [&sl, &sx, &sy] {
            prop_assert_eq!(s.digest(), fnv1a(&s.canonical_bytes()));
        }
        prop_assert_ne!(sl.digest(), sx.digest());
        if sx == sy {
            prop_assert_eq!(sx.digest(), sy.digest());
        } else {
            prop_assert_ne!(sx.canonical_bytes(), sy.canonical_bytes());
            prop_assert_ne!(sx.digest(), sy.digest());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache-hit byte-identity as a property: for any day of small
    /// loop jobs, serving it twice yields results byte-identical to a
    /// cold recompute on a cluster without caches — payloads and
    /// embedded metrics snapshots both.
    #[test]
    fn cache_hits_are_byte_identical_to_cold_recomputes(
        jobs in prop::collection::vec(
            (100u64..3_000, 0u8..3, 1u64..200, 0u64..50, 0u8..4, 1u32..64, 1u32..8),
            1..8,
        ),
    ) {
        let day: Vec<Arrival> = jobs
            .iter()
            .enumerate()
            .map(|(i, &f)| Arrival {
                vt: 0,
                sub: Submission::new(i as u32 % 3, 1 + i as u32 % 2, loop_spec(f)),
            })
            .collect();
        let cached = one_shard(4);
        let first = cached.run_day(&day);
        let second = cached.run_day(&day);
        prop_assert_eq!(second.stats.computed, 0, "second pass must be all hits");
        let cold_report = cold_cluster().run_day(&day);
        prop_assert_eq!(cold_report.stats.computed, cold_report.stats.accepted);
        prop_assert_eq!(cold_report.stats.accepted, day.len() as u64);
        for (warm, cold) in second.outcomes.iter().zip(&cold_report.outcomes) {
            let ((w, _), (c, _)) = (served(warm), served(cold));
            prop_assert_eq!(&w.payload, &c.payload);
            prop_assert_eq!(&w.metrics_json, &c.metrics_json);
            prop_assert_eq!(w.digest(), c.digest());
        }
        // And the first pass's computed results are what got cached.
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            prop_assert_eq!(served(a).0.digest(), served(b).0.digest());
        }
    }
}

/// The workload's unique-spec structure survives a serve pass: jobs
/// computed across the week equal the number of distinct digests.
#[test]
fn computed_jobs_equal_distinct_digests() {
    let week = course_week();
    let unique: HashSet<u64> = week.iter().flatten().map(|a| a.sub.spec.digest()).collect();
    let cluster = one_shard(4);
    let computed: u64 = week
        .iter()
        .map(|day| cluster.run_day(day).stats.computed)
        .sum();
    assert_eq!(computed, unique.len() as u64);
}

// ---------------------------------------------------------------
// Consistent-hash ring properties and the semester determinism
// matrix.
// ---------------------------------------------------------------

/// Ring balance: 20k keys over 8 shards land within ±20% of uniform
/// for every shard — the virtual nodes do their smoothing job.
#[test]
fn ring_distributes_keys_within_twenty_percent_of_uniform() {
    const KEYS: u64 = 20_000;
    const SHARDS: u32 = 8;
    let ring = HashRing::new(SHARDS, 128);
    let mut counts = [0u64; SHARDS as usize];
    for key in 0..KEYS {
        // Spread the sample over the keyspace the way real route keys
        // are: digests, not consecutive integers.
        counts[ring.route(key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize] += 1;
    }
    let uniform = KEYS as f64 / SHARDS as f64;
    for (shard, &count) in counts.iter().enumerate() {
        let ratio = count as f64 / uniform;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "shard {shard} holds {count} of {KEYS} keys ({ratio:.3}x uniform)"
        );
    }
}

/// Ring monotonicity: growing N shards to N+1 remaps only keys that
/// now belong to the new shard — nothing shuffles between survivors —
/// and the remapped share is ~1/(N+1) of the sample.
#[test]
fn ring_growth_remaps_about_one_nth_of_keys_to_the_new_shard_only() {
    const KEYS: u64 = 20_000;
    let keys: Vec<u64> = (0..KEYS)
        .map(|k| k.wrapping_mul(0x2545_F491_4F6C_DD1D))
        .collect();
    for shards in 1u32..=7 {
        let before = HashRing::new(shards, 128);
        let after = HashRing::new(shards + 1, 128);
        let mut remapped = 0u64;
        for &key in &keys {
            let old = before.route(key);
            let new = after.route(key);
            if old != new {
                assert_eq!(
                    new, shards,
                    "key {key:#x} moved between surviving shards {old}->{new}"
                );
                remapped += 1;
            }
        }
        let expected = KEYS as f64 / (shards + 1) as f64;
        let ratio = remapped as f64 / expected;
        assert!(
            (0.7..=1.3).contains(&ratio),
            "{shards}->{} shards remapped {remapped} keys ({ratio:.3}x the 1/N share)",
            shards + 1
        );
    }
}

/// The tentpole's acceptance oracle at test scale: a small semester
/// served by every (shards × workers) cell in {1,2,4}×{1,4} produces
/// one semantic digest (the semester digest), and within each shard
/// count the full digest is worker-invariant.
#[test]
fn semester_digest_matrix_is_bit_identical() {
    let cfg = SemesterConfig {
        tenants: 40,
        days: 7,
        ..SemesterConfig::smoke()
    };
    let run = |shards: u32, workers: usize| {
        let mut cc = ClusterConfig::with_shards(shards, workers);
        cc.l1_capacity = 48;
        cc.l2_capacity_per_shard = 128;
        cluster::run_semester(&Cluster::new(cc), &cfg)
    };
    let mut semantic = HashSet::new();
    for shards in [1u32, 2, 4] {
        let a = run(shards, 1);
        let b = run(shards, 4);
        assert_eq!(
            a.full_digest, b.full_digest,
            "full digest varies with workers at {shards} shards"
        );
        assert_eq!(a.stats, b.stats, "stats vary with workers");
        semantic.insert(a.semantic_digest);
        semantic.insert(b.semantic_digest);
    }
    assert_eq!(
        semantic.len(),
        1,
        "semantic digest must be one value across the whole matrix"
    );
}

/// The smoke semester's health pins as committed: the clean semester
/// fires no incident and yields the invariant telemetry digest, and the
/// storm semester trips every rule, three incidents in all.
#[test]
fn clean_semester_is_quiet_and_storm_fires() {
    let clean = SemesterConfig::smoke();
    let storm = SemesterConfig::smoke().with_storm();
    let cluster = || Cluster::new(ClusterConfig::with_shards(4, 2));
    let (_, clean_series) = serve::run_semester_observed(&cluster(), &clean);
    let (_, storm_series) = serve::run_semester_observed(&cluster(), &storm);
    assert_eq!(clean_series.invariant_digest(), 0xa2fa_e7f8_e072_91a8);
    let quiet = serve::evaluate_health(&clean_series);
    assert_eq!(
        quiet.firing_count(),
        0,
        "clean fired:\n{}",
        quiet.render_text()
    );
    let loud = serve::evaluate_health(&storm_series);
    for rule in ["deadline-storm", "shard-hotspot", "arrival-surge"] {
        assert!(
            loud.firing_of(rule) >= 1,
            "{rule} silent:\n{}",
            loud.render_text()
        );
    }
    assert_eq!(loud.firing_count(), 3, "{}", loud.render_text());
}

/// Serves the course week on a fresh one-shard cluster and chains
/// every day's full digest plus the final cache-state digest — the
/// number `serve --check` compares across worker counts.
fn week_digest(workers: usize) -> u64 {
    let cluster = one_shard(workers);
    let mut bytes = Vec::new();
    for day in course_week() {
        bytes.extend(cluster.run_day(&day).digest().to_le_bytes());
    }
    bytes.extend(cluster.state_digest().to_le_bytes());
    obs::trace::fnv1a(&bytes)
}

/// The course week's bytes as committed: the chained week digest at
/// every worker count and Monday's scheduler trace on one shard × 4
/// workers. `serve --check` only compares worker counts with each
/// other; these pin the values themselves.
#[test]
fn course_week_observation_matches_the_committed_digests() {
    for workers in [1, 2, 4, 8] {
        assert_eq!(week_digest(workers), 0x32d6_e438_2c65_9b56);
    }
    let monday = &course_week()[0];
    let trace = one_shard(4)
        .run_day(monday)
        .trace(monday, &obs::trace::TraceConfig::default());
    assert_eq!(trace.digest(), 0x2ed6_0f9f_215c_0ea7);
}

/// One spec per job kind and per MapReduce workload, with the digest
/// of its executed result (payload and metrics) as committed.
#[test]
fn executed_results_match_the_committed_digests() {
    let mapreduce = |workload| JobSpec::MapReduce {
        workload,
        docs: 12,
        seed: 9,
        map_workers: 3,
        reduce_workers: 2,
    };
    let cases = [
        (
            JobSpec::LoopSim {
                iterations: 2_000,
                cost: CostSpec::Linear { base: 50, slope: 1 },
                schedule: ScheduleSpec::Dynamic { chunk: 64 },
                threads: 4,
            },
            0x8530_1d7a_e161_b924,
        ),
        (
            JobSpec::ReductionSim {
                iterations: 1_000,
                iter_cost: 80,
                threads: 4,
                style: ReductionStyleSpec::Tree,
            },
            0x72ac_9d2a_f535_25bd,
        ),
        (mapreduce(MrWorkload::WordCount), 0x324f_8b4d_e1e1_6f82),
        (mapreduce(MrWorkload::InvertedIndex), 0x5237_fb41_596b_c5fa),
        (
            mapreduce(MrWorkload::Grep {
                pattern: "parallel".into(),
            }),
            0x8744_b891_231e_ed49,
        ),
        // The course week's Friday replication mini-study.
        (
            JobSpec::Replication {
                replicates: 4,
                num_students: 40,
                master_seed: 77,
                permutations: 150,
                bootstrap_reps: 100,
                section_permutations: 100,
            },
            0x6955_8cd0_6a59_736a,
        ),
        (
            JobSpec::Report {
                artefact: "fig1".into(),
            },
            0xe1ba_ecff_b921_5910,
        ),
    ];
    for (spec, expected) in &cases {
        let got = serve::exec::execute(spec).digest();
        assert_eq!(got, *expected, "{spec:?}");
    }
}

/// 384 MapReduce specs folded into one committed digest: every
/// workload (a grep that matches nothing among them) over 1–40
/// documents, two corpus seeds, a single map worker up to more splits
/// than documents, and a single reduce partition up to more partitions
/// than keys. The engine's thread count must not reach these bytes.
#[test]
fn mapreduce_spec_grid_matches_the_committed_digest() {
    let workloads = [
        MrWorkload::WordCount,
        MrWorkload::InvertedIndex,
        MrWorkload::Grep {
            pattern: "parallel".into(),
        },
        MrWorkload::Grep {
            pattern: "zzz".into(),
        },
    ];
    let mut bytes = Vec::new();
    for workload in &workloads {
        for docs in [1, 6, 16, 40] {
            for seed in [2000, 2039] {
                for map_workers in [1, 2, 4, 64] {
                    for reduce_workers in [1, 2, 7] {
                        let spec = JobSpec::MapReduce {
                            workload: workload.clone(),
                            docs,
                            seed,
                            map_workers,
                            reduce_workers,
                        };
                        bytes.extend(serve::exec::execute(&spec).digest().to_le_bytes());
                    }
                }
            }
        }
    }
    assert_eq!(bytes.len(), 384 * 8);
    assert_eq!(obs::trace::fnv1a(&bytes), 0xaf75_ee6d_f0d5_a2cd);
}

/// 189 reduction specs folded into one committed digest: every combine
/// style over one thread up to more threads than the Pi has cores (and
/// than iterations), a single iteration up to thousands, and free to
/// costly iterations. Each `AtomicPerIteration` iteration is a simulated
/// atomic read-modify-write, so this pins the cache hierarchy's
/// coherence charges as served.
#[test]
fn reduction_spec_grid_matches_the_committed_digest() {
    let styles = [
        ReductionStyleSpec::SerialCombine,
        ReductionStyleSpec::Tree,
        ReductionStyleSpec::AtomicPerIteration,
    ];
    let mut bytes = Vec::new();
    for style in styles {
        for threads in [1, 2, 3, 4, 5, 8, 64] {
            for iterations in [1, 500, 4_375] {
                for iter_cost in [0, 60, 165] {
                    let spec = JobSpec::ReductionSim {
                        iterations,
                        iter_cost,
                        threads,
                        style,
                    };
                    bytes.extend(serve::exec::execute(&spec).digest().to_le_bytes());
                }
            }
        }
    }
    assert_eq!(bytes.len(), 189 * 8);
    assert_eq!(obs::trace::fnv1a(&bytes), 0x6738_b93f_f61d_a8ba);
}
