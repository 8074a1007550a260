//! Property-based tests (proptest) on the core invariants across the
//! workspace: statistics, scheduling, the simulated machine, the
//! scoring kernel, and MapReduce.

use proptest::prelude::*;

use mapreduce::{run_job, JobConfig, MapReduce};
use parallel_rt::reduction::Sum;
use parallel_rt::schedule::{static_block, static_chunks};
use parallel_rt::sim::{
    lower_programs, plan_assignment, simulate_parallel_loop_lowered,
    simulate_parallel_loop_with_metrics, CostModel, Lowering, SimOptions,
};
use parallel_rt::{Schedule, Team};
use pi_sim::machine::{Machine, MachineConfig, RunReport};
use pi_sim::program::Program;
use stats::descriptive::{mean, quantile};
use stats::{cohen_d_independent, pearson, t_test_paired, Summary};

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn summary_mean_within_min_max(data in finite_vec(1..200)) {
        let s = Summary::from_slice(&data).unwrap();
        prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
        prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
    }

    #[test]
    fn summary_merge_is_order_independent(a in finite_vec(1..100), b in finite_vec(1..100)) {
        let mut ab = Summary::from_slice(&a).unwrap();
        ab.merge(&Summary::from_slice(&b).unwrap());
        let mut ba = Summary::from_slice(&b).unwrap();
        ba.merge(&Summary::from_slice(&a).unwrap());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert_eq!(ab.n(), ba.n());
    }

    #[test]
    fn quantiles_are_monotone(data in finite_vec(2..100), q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&data, lo).unwrap() <= quantile(&data, hi).unwrap() + 1e-12);
    }

    #[test]
    fn pearson_is_symmetric_and_bounded(
        x in finite_vec(3..60),
        noise in prop::collection::vec(-0.5..0.5f64, 3..60),
    ) {
        let n = x.len().min(noise.len());
        let x = &x[..n];
        let y: Vec<f64> = x.iter().zip(&noise[..n]).map(|(a, b)| a * 0.5 + b).collect();
        if let (Ok(rxy), Ok(ryx)) = (pearson(x, &y), pearson(&y, x)) {
            prop_assert!((rxy.r - ryx.r).abs() < 1e-12);
            prop_assert!((-1.0..=1.0).contains(&rxy.r));
        }
    }

    #[test]
    fn paired_ttest_shift_invariance(data in finite_vec(3..60), shift in -10.0..10.0f64) {
        // Shifting both samples identically leaves the test unchanged.
        let second: Vec<f64> = data.iter().enumerate().map(|(i, x)| x + (i % 3) as f64).collect();
        let a = t_test_paired(&data, &second);
        let d2: Vec<f64> = data.iter().map(|x| x + shift).collect();
        let s2: Vec<f64> = second.iter().map(|x| x + shift).collect();
        let b = t_test_paired(&d2, &s2);
        if let (Ok(a), Ok(b)) = (a, b) {
            prop_assert!((a.t - b.t).abs() < 1e-6);
            prop_assert!((a.p_two_sided - b.p_two_sided).abs() < 1e-6);
        }
    }

    #[test]
    fn cohen_d_is_scale_equivariant_in_sign(lo in 0.0..1.0f64, gap in 0.01..2.0f64) {
        let a: Vec<f64> = (0..30).map(|i| lo + (i % 5) as f64 * 0.1).collect();
        let b: Vec<f64> = a.iter().map(|x| x + gap).collect();
        let d = cohen_d_independent(&a, &b).unwrap();
        prop_assert!(d.d > 0.0);
        let rev = cohen_d_independent(&b, &a).unwrap();
        prop_assert!((d.d + rev.d).abs() < 1e-9);
    }

    #[test]
    fn static_schedules_partition_any_range(n in 0usize..500, threads in 1usize..9, chunk in 1usize..7) {
        let mut block: Vec<usize> = (0..threads).flat_map(|t| static_block(0..n, threads, t)).collect();
        block.sort_unstable();
        prop_assert_eq!(&block, &(0..n).collect::<Vec<_>>());
        let mut chunked: Vec<usize> = (0..threads)
            .flat_map(|t| static_chunks(0..n, threads, t, chunk).into_iter().flatten())
            .collect();
        chunked.sort_unstable();
        prop_assert_eq!(chunked, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn any_plan_covers_every_iteration(
        n in 0usize..400,
        threads in 1usize..8,
        chunk in 1usize..6,
        dynamic in prop::bool::ANY,
        base in 1u64..50,
        slope in 0u64..10,
    ) {
        let schedule = if dynamic { Schedule::Dynamic(chunk) } else { Schedule::StaticChunk(chunk) };
        let cost = CostModel::Linear { base, slope };
        let plan = plan_assignment(n, &cost, schedule, threads);
        prop_assert_eq!(plan.len(), threads);
        let mut all: Vec<usize> = plan.into_iter().flatten().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn machine_conserves_compute_work(loads in prop::collection::vec(1u64..200_000, 1..8)) {
        let programs: Vec<Program> = loads.iter().map(|&c| Program::new().compute(c)).collect();
        let report = Machine::pi().run(programs);
        let done: u64 = report.threads.iter().map(|t| t.compute_cycles).sum();
        prop_assert_eq!(done, loads.iter().sum::<u64>());
        let max_finish = report.threads.iter().map(|t| t.finish_time).max().unwrap();
        prop_assert_eq!(report.total_cycles, max_finish);
    }

    #[test]
    fn machine_makespan_bounded_by_serial_sum(loads in prop::collection::vec(1u64..100_000, 1..6)) {
        let programs: Vec<Program> = loads.iter().map(|&c| Program::new().compute(c)).collect();
        let report = Machine::pi().run(programs);
        let serial: u64 = loads.iter().sum();
        let longest: u64 = *loads.iter().max().unwrap();
        // Parallel makespan is at least the longest thread and at most
        // the serial sum plus scheduling overhead.
        prop_assert!(report.total_cycles >= longest);
        let overhead_allowance = 2_000 * loads.len() as u64 + serial / 10;
        prop_assert!(report.total_cycles <= serial + overhead_allowance);
    }

    #[test]
    fn lcs_score_invariants(a in "[a-d]{0,12}", b in "[a-d]{0,24}") {
        let s = drugsim::score(&a, &b);
        prop_assert!(s <= a.len().min(b.len()));
        prop_assert_eq!(s, drugsim::score(&b, &a));
        // Appending characters never decreases the score.
        let extended = format!("{b}x");
        prop_assert!(drugsim::score(&a, &extended) >= s);
        // A string always fully matches itself.
        prop_assert_eq!(drugsim::score(&a, &a), a.len());
    }

    #[test]
    fn parallel_reduce_equals_sequential_sum(n in 0usize..5_000, threads in 1usize..6) {
        let team = Team::new(threads);
        let par: u64 = team.parallel_for_reduce(0..n, Schedule::Dynamic(7), Sum, |i| i as u64);
        prop_assert_eq!(par, (0..n as u64).sum::<u64>());
    }

    #[test]
    fn trapezoid_is_exact_for_linear_functions(a in -5.0..5.0f64, span in 0.1..5.0f64, m in -3.0..3.0f64, c in -3.0..3.0f64) {
        // The trapezoidal rule integrates linear functions exactly.
        let b = a + span;
        let r = patternlets::trapezoid::integrate_parallel(|x| m * x + c, a, b, 64, 3);
        let exact = m * (b * b - a * a) / 2.0 + c * (b - a);
        prop_assert!((r.value - exact).abs() < 1e-9 * (1.0 + exact.abs()));
    }
}

/// Word count formulated directly for the property test.
struct Counter;

impl MapReduce for Counter {
    type Input = Vec<u32>;
    type Key = u32;
    type Value = u64;
    type Output = u64;

    fn map(&self, input: &Vec<u32>, emit: &mut dyn FnMut(u32, u64)) {
        for &x in input {
            emit(x % 16, 1);
        }
    }

    fn reduce(&self, _key: &u32, values: Vec<u64>) -> u64 {
        values.into_iter().sum()
    }

    fn combine(&self, _key: &u32, values: Vec<u64>) -> Vec<u64> {
        vec![values.into_iter().sum()]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mapreduce_counts_match_a_sequential_fold(
        inputs in prop::collection::vec(prop::collection::vec(0u32..64, 0..30), 0..12),
        combiner in prop::bool::ANY,
        map_workers in 1usize..5,
        reduce_workers in 1usize..5,
    ) {
        let mut expected = std::collections::BTreeMap::new();
        for row in &inputs {
            for &x in row {
                *expected.entry(x % 16).or_insert(0u64) += 1;
            }
        }
        let out = run_job(&Counter, inputs, &JobConfig {
            map_workers,
            reduce_workers,
            use_combiner: combiner,
            ..JobConfig::default()
        });
        let got: std::collections::BTreeMap<u32, u64> = out.results.into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn mapreduce_failures_never_change_results(
        inputs in prop::collection::vec(prop::collection::vec(0u32..64, 1..20), 1..10),
        fail_a in 0usize..8,
        fail_b in 0usize..8,
    ) {
        let clean = run_job(&Counter, inputs.clone(), &JobConfig::default());
        let faulty = run_job(&Counter, inputs, &JobConfig {
            fail_first_attempt_of: [fail_a, fail_b].into_iter().collect(),
            ..JobConfig::default()
        });
        prop_assert_eq!(clean.results, faulty.results);
    }

    #[test]
    fn bootstrap_ci_brackets_the_sample_mean(data in finite_vec(5..60), seed in 0u64..1000) {
        let ci = stats::resample::bootstrap_ci(&data, |d| mean(d).unwrap(), 0.95, 200, seed).unwrap();
        prop_assert!(ci.lo <= ci.estimate + 1e-9);
        prop_assert!(ci.hi >= ci.estimate - 1e-9);
    }
}

/// Field-by-field `RunReport` equality (it intentionally does not derive
/// `PartialEq`; the bit-identical contract is asserted explicitly so a
/// future non-comparable field forces a conscious decision here).
fn assert_reports_bit_identical(
    a: &RunReport,
    b: &RunReport,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(a.total_cycles, b.total_cycles);
    prop_assert_eq!(&a.threads, &b.threads);
    prop_assert_eq!(&a.cache_stats, &b.cache_stats);
    prop_assert_eq!(a.contended_lock_acquires, b.contended_lock_acquires);
    prop_assert_eq!(a.barrier_episodes, b.barrier_episodes);
    prop_assert_eq!(a.context_switches, b.context_switches);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole determinism contract: for any cost model, schedule,
    /// team size, and iteration count, the O(threads) lowering and the
    /// O(n) per-iteration oracle produce bit-identical machine reports.
    #[test]
    fn rle_lowering_matches_per_iteration_bit_for_bit(
        iterations in 0usize..2_500,
        threads in 1usize..7,
        model_sel in 0u8..3,
        sched_sel in 0u8..4,
        chunk in 1usize..80,
        a in 1u64..300,
        b in 0u64..40,
    ) {
        let cost = match model_sel {
            0 => CostModel::Uniform(a),
            1 => CostModel::Linear { base: a, slope: b },
            _ => CostModel::Alternating { even: a, odd: a + b },
        };
        let schedule = match sched_sel {
            0 => Schedule::StaticBlock,
            1 => Schedule::StaticChunk(chunk),
            2 => Schedule::Dynamic(chunk),
            _ => Schedule::Guided(chunk),
        };
        let opts = SimOptions::default();
        let rle = simulate_parallel_loop_lowered(iterations, &cost, schedule, threads, &opts, Lowering::Rle);
        let unit = simulate_parallel_loop_lowered(iterations, &cost, schedule, threads, &opts, Lowering::PerIteration);
        prop_assert_eq!(rle.cycles, unit.cycles);
        prop_assert_eq!(&rle.iterations_per_thread, &unit.iterations_per_thread);
        assert_reports_bit_identical(&rle.report, &unit.report)?;
    }

    /// Any RLE program — compute repeats, strided reads/writes, atomic
    /// blocks on shared lines, mixed with synchronisation — times
    /// identically to its unit-op expansion, including cache statistics
    /// and context switches, with up to eight threads on one to four
    /// cores and quanta down to 64 cycles.
    #[test]
    fn rle_programs_match_their_expansion(
        threads in 1usize..9,
        cores in 1usize..5,
        quantum_sel in 0usize..4,
        repeats in prop::collection::vec((1u64..2_000, 0u64..50), 1..5),
        strides in prop::collection::vec((0u64..65_536, 0u64..512, 0u64..40), 0..4),
        atomics in prop::collection::vec((0usize..3, 0u64..600, 0u64..80), 0..3),
        with_sync in prop::bool::ANY,
    ) {
        // The first two lines share an L1 set.
        const ATOMIC_LINES: [u64; 3] = [0x9000_0000, 0x9000_2000, 0x9000_0040];
        let quantum = [64, 1_000, 12_500, 50_000][quantum_sel];
        let config = MachineConfig {
            cores,
            quantum,
            context_switch: quantum / 8,
            ..MachineConfig::pi()
        };
        let mut block = Program::new();
        for &(cost, count) in &repeats {
            block = block.compute_repeat(cost, count);
        }
        for &(base, stride, count) in &strides {
            block = block.read_stride(base, stride, count).write_stride(base ^ 0x8000, stride, count / 2);
        }
        for &(line, cost, count) in &atomics {
            block = block.atomic_rmw_repeat(ATOMIC_LINES[line], cost, count);
        }
        if with_sync {
            block = block.barrier(0, threads as u32).lock(1).compute(17).unlock(1);
        }
        let rle: Vec<Program> = (0..threads).map(|_| block.clone()).collect();
        let unit: Vec<Program> = rle.iter().map(Program::expand).collect();
        let a = Machine::new(config).run(rle);
        let b = Machine::new(config).run(unit);
        assert_reports_bit_identical(&a, &b)?;
    }
}

/// A snapshot of 0–16 metrics of all three kinds in both domains, with
/// `/`-separated names, 0–14 histogram edges and values anywhere in
/// `0..=u64::MAX` (every digit count is about as likely), drawn from
/// `seed` by SplitMix64.
fn random_snapshot(seed: u64) -> obs::MetricsSnapshot {
    use obs::{Domain, MetricData, MetricSample};
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let value = |next: &mut dyn FnMut() -> u64| match next() % 8 {
        0 => 0,
        1 => u64::MAX,
        _ => next() >> (next() % 64),
    };
    let metrics = (0..next() % 17)
        .map(|_| {
            const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
            let name = (0..1 + next() % 4)
                .map(|_| {
                    (0..1 + next() % 10)
                        .map(|_| LETTERS[(next() % LETTERS.len() as u64) as usize] as char)
                        .collect::<String>()
                })
                .collect::<Vec<_>>()
                .join("/");
            let domain = if next() % 2 == 0 {
                Domain::Virtual
            } else {
                Domain::Wall
            };
            let data = match next() % 3 {
                0 => MetricData::Counter {
                    value: value(&mut next),
                },
                1 => {
                    let edges: Vec<u64> = (0..next() % 15).map(|_| value(&mut next)).collect();
                    MetricData::Histogram {
                        counts: (0..=edges.len()).map(|_| value(&mut next)).collect(),
                        edges,
                        count: value(&mut next),
                        sum: value(&mut next),
                        min: value(&mut next),
                        max: value(&mut next),
                    }
                }
                _ => MetricData::Span {
                    total: value(&mut next),
                    entries: value(&mut next),
                },
            };
            MetricSample { name, domain, data }
        })
        .collect();
    obs::MetricsSnapshot { metrics }
}

/// The metrics JSON as it was rendered before the one-pass writer: one
/// `format!` per metric, `Vec<String>` arrays, and the digest line
/// spliced in after the schema line.
fn reference_metrics_json(snapshot: &obs::MetricsSnapshot, digested: bool) -> String {
    use obs::MetricData;
    use std::fmt::Write as _;
    fn array(values: &[u64]) -> String {
        let inner: Vec<String> = values.iter().map(u64::to_string).collect();
        format!("[{}]", inner.join(", "))
    }
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"pbl-obs/v1\",");
    out.push_str("  \"metrics\": [\n");
    for (i, m) in snapshot.metrics.iter().enumerate() {
        let body = match &m.data {
            MetricData::Counter { value } => format!(
                "\"kind\": \"counter\", \"domain\": \"{}\", \"value\": {value}",
                m.domain.label()
            ),
            MetricData::Histogram {
                edges,
                counts,
                count,
                sum,
                min,
                max,
            } => format!(
                "\"kind\": \"histogram\", \"domain\": \"{}\", \"edges\": {}, \"counts\": {}, \"count\": {count}, \"sum\": {sum}, \"min\": {min}, \"max\": {max}",
                m.domain.label(),
                array(edges),
                array(counts),
            ),
            MetricData::Span { total, entries } => format!(
                "\"kind\": \"span\", \"domain\": \"{}\", \"total\": {total}, \"entries\": {entries}",
                m.domain.label()
            ),
        };
        let comma = if i + 1 == snapshot.metrics.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(out, "    {{\"name\": \"{}\", {body}}}{comma}", m.name);
    }
    out.push_str("  ]\n}\n");
    if !digested {
        return out;
    }
    let schema_end = out.find(",\n").expect("schema line") + 2;
    let digest = obs::trace::fnv1a(out.as_bytes());
    let line = format!("  \"digest\": \"0x{digest:016x}\",\n");
    format!("{}{line}{}", &out[..schema_end], &out[schema_end..])
}

/// `parallel_rt`'s chunk-size histogram edges, which the served path
/// registers before the machine's metrics.
const CHUNK_SIZE_EDGES: [u64; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one-pass metrics writer renders every snapshot to the bytes
    /// of the reference renderer, with and without the digest line, and
    /// the digest line holds `digest()`.
    #[test]
    fn snapshot_json_matches_the_reference_renderer(seed in 0u64..u64::MAX) {
        let snapshot = random_snapshot(seed);
        let plain = snapshot.to_json();
        prop_assert_eq!(&plain, &reference_metrics_json(&snapshot, false));
        let digested = snapshot.to_json_with_digest();
        prop_assert_eq!(&digested, &reference_metrics_json(&snapshot, true));
        prop_assert_eq!(digested.len(), plain.len() + 34);
        let line = format!("  \"digest\": \"0x{:016x}\",\n", snapshot.digest());
        prop_assert!(digested.contains(&line), "{}", digested);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The served loop folds its plan without collecting it; it must
    /// give what the collected plan gives when lowered per iteration,
    /// with the chunk histogram recorded chunk by chunk.
    #[test]
    fn served_loop_matches_the_collected_plan(
        iterations in 0usize..20_001,
        threads in 1usize..10,
        model_sel in 0u8..3,
        sched_sel in 0u8..4,
        chunk in 1usize..65,
        a in 1u64..300,
        b in 0u64..8,
    ) {
        let cost = match model_sel {
            0 => CostModel::Uniform(a),
            1 => CostModel::Linear { base: a, slope: b },
            _ => CostModel::Alternating { even: a, odd: a + b },
        };
        let schedule = match sched_sel {
            0 => Schedule::StaticBlock,
            1 => Schedule::StaticChunk(chunk),
            2 => Schedule::Dynamic(chunk),
            _ => Schedule::Guided(chunk),
        };
        let opts = SimOptions::default();
        let served_registry = obs::Registry::new();
        let served = simulate_parallel_loop_with_metrics(
            iterations, &cost, schedule, threads, &opts, &served_registry);

        let plan = plan_assignment(iterations, &cost, schedule, threads);
        let registry = obs::Registry::new();
        let chunk_sizes = registry.histogram(
            &format!("parallel_rt/chunks/{}", schedule.label()),
            obs::Domain::Virtual,
            &CHUNK_SIZE_EDGES,
        );
        for chunk in plan.iter().flatten() {
            chunk_sizes.record(chunk.len() as u64);
        }
        let programs = lower_programs(&plan, &cost, opts.fork_overhead, Lowering::PerIteration);
        let report = Machine::new(opts.machine).run_with_metrics(programs, &registry);
        let per_thread: Vec<usize> = plan.iter().map(|c| c.iter().map(|r| r.len()).sum()).collect();

        prop_assert_eq!(served.cycles, report.total_cycles);
        prop_assert_eq!(&served.iterations_per_thread, &per_thread);
        assert_reports_bit_identical(&served.report, &report)?;
        prop_assert_eq!(served_registry.snapshot().to_json(), registry.snapshot().to_json());
    }
}

/// SplitMix64 draws for the document generators below.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value anywhere in `0..=u64::MAX`, every digit count about as
    /// likely.
    fn value(&mut self) -> u64 {
        match self.next() % 8 {
            0 => 0,
            1 => u64::MAX,
            _ => {
                let bits = self.next();
                bits >> (self.next() % 64)
            }
        }
    }

    /// `1..=max_len` characters of `alphabet`.
    fn word(&mut self, alphabet: &[char], max_len: u64) -> String {
        (0..1 + self.next() % max_len)
            .map(|_| alphabet[(self.next() % alphabet.len() as u64) as usize])
            .collect()
    }
}

/// A series set of 0–8 counters, gauges and histograms (0–6 edges) on
/// shards 0–2 and `CLUSTER_SHARD`, either value of `invariant`, with
/// samples that land in, between and before the ring's windows; rolled
/// up a quarter of the time.
fn random_series(seed: u64) -> obs::SeriesSet {
    const SAFE: &[char] = &['a', 'b', 'z', '0', '9', '_', '/', '-', '.', ' '];
    let mut draw = Draws(seed);
    let mut set = obs::SeriesSet::new(1 + draw.next() % 3, 1 + (draw.next() % 8) as usize);
    for _ in 0..draw.next() % 9 {
        let kind = draw.next() % 3;
        // The kind is part of the name, so a repeated name never
        // re-opens a series as another kind.
        let name = format!(
            "{}{}",
            ["c/", "g/", "h/"][kind as usize],
            draw.word(SAFE, 6)
        );
        let shard = match draw.next() % 4 {
            3 => obs::CLUSTER_SHARD,
            s => s as u32,
        };
        let invariant = draw.next().is_multiple_of(2);
        let mut edges: Vec<u64> = (0..draw.next() % 7).map(|_| draw.value()).collect();
        edges.sort_unstable();
        edges.dedup();
        let samples: Vec<(u64, u64)> = (0..draw.next() % 24)
            .map(|_| (draw.next() % 40, draw.value()))
            .collect();
        let series = match kind {
            0 => set.counter(&name, shard, invariant),
            1 => set.gauge(&name, shard, invariant),
            _ => set.histogram(&name, shard, invariant, &edges),
        };
        for (vt, value) in samples {
            series.record(vt, value);
        }
    }
    if draw.next().is_multiple_of(4) {
        set.rollup()
    } else {
        set
    }
}

/// The `"pbl-ts/v1"` JSON as it was rendered before the shared writer:
/// one `writeln!` per series and per point, histogram counts joined
/// from a `Vec<String>`, and the digest line spliced in after the
/// schema line.
fn reference_series_json(
    set: &obs::SeriesSet,
    filter: impl Fn(&obs::TimeSeries) -> bool,
    digested: bool,
) -> String {
    use obs::timeseries::bucket_percentile;
    use obs::{SeriesKind, TimeSeries, WindowPoint};
    use std::fmt::Write as _;
    fn shard_label(shard: u32) -> String {
        if shard == obs::CLUSTER_SHARD {
            "cluster".to_string()
        } else {
            shard.to_string()
        }
    }
    let picked: Vec<&TimeSeries> = set.iter().filter(|s| filter(s)).collect();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"pbl-ts/v1\",\n");
    out.push_str("  \"series\": [\n");
    for (i, s) in picked.iter().enumerate() {
        let comma = if i + 1 == picked.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"shard\": \"{}\", \"kind\": \"{}\", \"width\": {}, \"capacity\": {}, \"invariant\": {}, \"dropped\": {}, \"points\": {}}}{comma}",
            s.name,
            shard_label(s.shard),
            s.kind.label(),
            s.width,
            s.capacity,
            s.invariant,
            s.dropped,
            s.points().count(),
        );
    }
    out.push_str("  ],\n");
    let mut rows: Vec<(u64, u32, &str, &TimeSeries, &WindowPoint)> = Vec::new();
    for s in &picked {
        for p in s.points() {
            rows.push((p.window, s.shard, s.name.as_str(), s, p));
        }
    }
    rows.sort_by_key(|&(window, shard, name, _, _)| (window, shard, name.to_string()));
    out.push_str("  \"points\": [\n");
    for (i, (window, shard, name, s, p)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let body = match s.kind {
            SeriesKind::Counter | SeriesKind::Gauge => format!("\"value\": {}", p.value),
            SeriesKind::Histogram => {
                let pct = |p_mille| bucket_percentile(&s.edges, &p.counts, p.count, p.max, p_mille);
                let counts: Vec<String> = p.counts.iter().map(u64::to_string).collect();
                format!(
                    "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"counts\": [{}]",
                    p.count,
                    p.sum,
                    p.min,
                    p.max,
                    pct(500),
                    pct(950),
                    pct(990),
                    counts.join(", "),
                )
            }
        };
        let _ = writeln!(
            out,
            "    {{\"window\": {window}, \"shard\": \"{}\", \"series\": \"{name}\", {body}}}{comma}",
            shard_label(*shard),
        );
    }
    out.push_str("  ]\n}\n");
    if !digested {
        return out;
    }
    let schema_end = out.find(",\n").expect("schema line") + 2;
    let digest = obs::trace::fnv1a(out.as_bytes());
    let line = format!("  \"digest\": \"0x{digest:016x}\",\n");
    format!("{}{line}{}", &out[..schema_end], &out[schema_end..])
}

/// A merge of 1–3 traces, each of 0–4 lanes with distinct ids drawn
/// from 0–7, holding events of all four kinds at colliding times, with
/// names that need escaping and lane capacities that drop events.
fn random_trace(seed: u64) -> obs::trace::Trace {
    use obs::trace::{category, Trace, TraceBuffer};
    const NAMES: &[char] = &['a', 'Z', '0', '/', ' ', '"', '\\', '\n', '\u{1}', 'é'];
    const CATEGORIES: [&str; 4] = [category::SLICE, category::BUS, category::CHUNK, ""];
    let mut draw = Draws(seed);
    let parts: Vec<(String, Trace)> = (0..1 + draw.next() % 3)
        .map(|_| {
            let process = draw.word(NAMES, 6);
            let mut ids: Vec<u32> = (0..8).collect();
            let buffers: Vec<TraceBuffer> = (0..draw.next() % 5)
                .map(|_| {
                    let id = ids.remove((draw.next() % ids.len() as u64) as usize);
                    let mut buf =
                        TraceBuffer::new(id, draw.word(NAMES, 8), (draw.next() % 12) as usize);
                    for _ in 0..draw.next() % 16 {
                        let time = draw.next() % 20;
                        let name = draw.word(NAMES, 5);
                        let cat = CATEGORIES[(draw.next() % 4) as usize];
                        let value = draw.value();
                        match draw.next() % 4 {
                            0 => buf.begin(time, name, cat, value),
                            1 => buf.end(time),
                            2 => buf.instant(time, name, cat, value),
                            _ => buf.counter(time, name, cat, value),
                        }
                    }
                    buf
                })
                .collect();
            (process, Trace::from_buffers(buffers))
        })
        .collect();
    Trace::merge(
        parts
            .iter()
            .map(|(name, t)| (name.as_str(), t.clone()))
            .collect(),
    )
}

/// The Chrome trace JSON as it was rendered before the shared writer:
/// one `format!`ed line per metadata record and event, collected into
/// a `Vec<String>`, with each event's process found by a linear scan.
fn reference_chrome_json(trace: &obs::trace::Trace) -> String {
    use obs::trace::EventKind;
    use std::fmt::Write as _;
    fn escaped(out: &mut String, s: &str) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"displayTimeUnit\": \"ns\",\n");
    let _ = writeln!(
        out,
        "  \"otherData\": {{\"schema\": \"pbl-trace/v1\", \"dropped\": {}}},",
        trace.dropped
    );
    out.push_str("  \"traceEvents\": [\n");
    let mut lines: Vec<String> = Vec::new();
    for p in &trace.processes {
        let mut line = format!(
            "{{\"ph\": \"M\", \"pid\": {}, \"tid\": 0, \"name\": \"process_name\", \"args\": {{\"name\": \"",
            p.pid
        );
        escaped(&mut line, &p.name);
        line.push_str("\"}}");
        lines.push(line);
    }
    for lane in &trace.lanes {
        let mut line = format!(
            "{{\"ph\": \"M\", \"pid\": {}, \"tid\": {}, \"name\": \"thread_name\", \"args\": {{\"name\": \"",
            lane.pid, lane.id
        );
        escaped(&mut line, &lane.name);
        line.push_str("\"}}");
        lines.push(line);
    }
    for ev in &trace.events {
        let pid = trace
            .lanes
            .iter()
            .find(|l| l.id == ev.lane)
            .map_or(0, |l| l.pid);
        let phase = match ev.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
        };
        let mut line = format!(
            "{{\"ph\": \"{phase}\", \"pid\": {pid}, \"tid\": {}, \"ts\": {}",
            ev.lane, ev.time
        );
        if ev.kind != EventKind::End {
            line.push_str(", \"name\": \"");
            escaped(&mut line, &ev.name);
            let _ = write!(line, "\", \"cat\": \"{}\"", ev.category);
            if ev.kind == EventKind::Instant {
                line.push_str(", \"s\": \"t\"");
            }
            let _ = write!(line, ", \"args\": {{\"v\": {}}}", ev.value);
        }
        line.push('}');
        lines.push(line);
    }
    for (i, line) in lines.iter().enumerate() {
        let comma = if i + 1 == lines.len() { "" } else { "," };
        let _ = writeln!(out, "    {line}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every series export renders a random set to the bytes of the
    /// reference renderer: all series, the invariant ones, and all of
    /// them with the digest line.
    #[test]
    fn series_json_matches_the_reference_renderer(seed in 0u64..u64::MAX) {
        let set = random_series(seed);
        prop_assert_eq!(set.to_json(), reference_series_json(&set, |_| true, false));
        prop_assert_eq!(set.invariant_json(), reference_series_json(&set, |s| s.invariant, false));
        prop_assert_eq!(
            set.to_json_with_digest(),
            reference_series_json(&set, |_| true, true)
        );
    }

    /// The Chrome export renders a random merged trace to the bytes of
    /// the reference renderer.
    #[test]
    fn chrome_json_matches_the_reference_renderer(seed in 0u64..u64::MAX) {
        let trace = random_trace(seed);
        prop_assert_eq!(trace.to_chrome_json(), reference_chrome_json(&trace));
    }
}
