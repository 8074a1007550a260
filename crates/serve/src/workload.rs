//! The synthetic course-week submission trace.
//!
//! The paper's course is, operationally, a multi-tenant job service:
//! 26 teams (13 per section × 2 sections) repeatedly submit
//! near-identical patternlet and assignment runs against shared
//! Raspberry Pi hardware. [`course_week`] reproduces one week of that
//! traffic as five daily batches, with exactly the reuse structure
//! that makes content-addressed caching pay:
//!
//! * every team runs the **day's patternlet** (same spec for the whole
//!   class — one compute, 25 joins per day);
//! * every team re-runs the **week's reduction exercise** unchanged
//!   (computed Monday, a cache hit for the rest of the week);
//! * a few teams explore **custom parameters** (unique specs — the
//!   cold tail);
//! * midweek adds a shared **MapReduce reading exercise** plus a
//!   couple of team-specific greps, a **report-artefact day**, and a
//!   Friday **replication mini-study** with a revisit of Monday's
//!   patternlet (still warm in the cache).
//!
//! The trace is a pure function — no RNG, no clocks — so every serve
//! run of the course week sees byte-identical submissions.
//!
//! ## The semester workload (open loop)
//!
//! [`SemesterConfig`] scales the course three orders of magnitude: a
//! seeded **Poisson arrival process** over virtual time, one stream
//! per (tenant, day), modulated by an integer **weekday/deadline-burst
//! intensity curve** (quiet weekends, a 3× spike every deadline day)
//! and a linear semester ramp — thousands of course-tenants, around a
//! million submissions over a simulated semester. Specs are drawn from
//! a bounded [`JobUniverse`] with Zipf-like popularity, so cache reuse
//! is realistic: a hot head of shared exercises and a long cold tail
//! of per-team explorations. Everything is derived from
//! [`StreamSeeder`] streams and basic f64
//! arithmetic (the Poisson inverse uses a local deterministic
//! [`exp_neg`], never libm), so the arrival sequence is bit-identical
//! on every host — no wall clock anywhere.

use crate::sched::Submission;
use crate::spec::{CostSpec, JobSpec, MrWorkload, ReductionStyleSpec, ScheduleSpec};
use stats::rng::{StreamSeeder, Xoshiro256};

/// Teams submitting (13 per section, two sections — the paper's
/// cohort).
pub const TEAMS: u32 = 26;

/// Days in the trace.
pub const DAYS: usize = 5;

/// Ticket weight of a team: project-phase teams get more scheduler
/// share, cycling 1..=3 so every weight class is populated.
pub fn tickets(team: u32) -> u32 {
    1 + team % 3
}

fn day_schedule(day: usize) -> ScheduleSpec {
    [
        ScheduleSpec::StaticBlock,
        ScheduleSpec::StaticChunk { chunk: 16 },
        ScheduleSpec::Dynamic { chunk: 16 },
        ScheduleSpec::Guided { min_chunk: 8 },
        ScheduleSpec::Dynamic { chunk: 32 },
    ][day % DAYS]
}

fn daily_patternlet(day: usize) -> JobSpec {
    JobSpec::LoopSim {
        iterations: 4_000 + 1_000 * day as u64,
        cost: CostSpec::Uniform { cycles: 100 },
        schedule: day_schedule(day),
        threads: 4,
    }
}

fn weekly_reduction() -> JobSpec {
    JobSpec::ReductionSim {
        iterations: 3_000,
        iter_cost: 90,
        threads: 4,
        style: ReductionStyleSpec::Tree,
    }
}

/// One week of course traffic: five daily batches over [`TEAMS`]
/// tenants. Team numbers are the tenant ids; ticket weights come from
/// [`tickets`].
pub fn course_week() -> Vec<Vec<Submission>> {
    let mut week = Vec::with_capacity(DAYS);
    for day in 0..DAYS {
        let mut batch = Vec::new();
        for team in 0..TEAMS {
            let weight = tickets(team);
            // The day's patternlet — identical across the class.
            batch.push(Submission::new(team, weight, daily_patternlet(day)));
            // The week-long reduction exercise — identical all week.
            batch.push(Submission::new(team, weight, weekly_reduction()));
            // Exploratory teams sweep their own parameters: unique
            // specs that can never hit the cache.
            if team % 5 == 0 {
                batch.push(Submission::new(
                    team,
                    weight,
                    JobSpec::LoopSim {
                        iterations: 2_000 + 97 * team as u64 + 13 * day as u64,
                        cost: CostSpec::Linear {
                            base: 60,
                            slope: 1 + team as u64 % 3,
                        },
                        schedule: ScheduleSpec::Guided { min_chunk: 4 },
                        threads: 2 + team % 3,
                    },
                ));
            }
            match day {
                2 => {
                    // MapReduce reading day: the shared word-count
                    // exercise, plus two teams grepping on their own.
                    batch.push(Submission::new(
                        team,
                        weight,
                        JobSpec::MapReduce {
                            workload: MrWorkload::WordCount,
                            docs: 18,
                            seed: 2_019,
                            map_workers: 4,
                            reduce_workers: 2,
                        },
                    ));
                    if team == 7 || team == 14 {
                        batch.push(Submission::new(
                            team,
                            weight,
                            JobSpec::MapReduce {
                                workload: MrWorkload::Grep {
                                    pattern: if team == 7 {
                                        "race".to_string()
                                    } else {
                                        "parallel".to_string()
                                    },
                                },
                                docs: 18,
                                seed: 2_019,
                                map_workers: 2,
                                reduce_workers: 2,
                            },
                        ));
                    }
                }
                3 => {
                    // Report day: three artefacts split across the
                    // class — three computes, the rest join.
                    let artefact = ["fig1", "fig2", "table1"][(team % 3) as usize];
                    batch.push(Submission::new(
                        team,
                        weight,
                        JobSpec::Report {
                            artefact: artefact.to_string(),
                        },
                    ));
                }
                4 => {
                    // Friday: the shared replication mini-study, and a
                    // revisit of Monday's patternlet — still cached.
                    batch.push(Submission::new(
                        team,
                        weight,
                        JobSpec::Replication {
                            replicates: 4,
                            num_students: 40,
                            master_seed: 77,
                            permutations: 150,
                            bootstrap_reps: 100,
                            section_permutations: 100,
                        },
                    ));
                    batch.push(Submission::new(team, weight, daily_patternlet(0)));
                }
                _ => {}
            }
        }
        week.push(batch);
    }
    week
}

// ---------------------------------------------------------------
// Semester-scale open-loop traffic
// ---------------------------------------------------------------

/// Virtual ticks in one simulated day. Sized against WFQ spans
/// (`cost × 1000 / tickets`, so ~10⁸–10⁹ per job): a typical tenant's
/// daily work roughly fills a day, and deadline bursts overflow it —
/// which is what makes open-loop sojourns an interesting tail.
pub const DAY_VT: u64 = 4_000_000_000;

/// One open-loop arrival: a submission stamped with the virtual time
/// it enters the system (an offset within its day, `0..DAY_VT`).
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Arrival virtual time within the day.
    pub vt: u64,
    /// The submission.
    pub sub: Submission,
}

/// A seeded fault-injection overlay on the semester: a **deadline
/// storm** (every tenant's arrival rate multiplied for a few days)
/// plus a **shard hot-spot** (one tenant hammering one expensive,
/// fixed spec — one route key, so the whole burst lands on exactly one
/// shard and serializes on that tenant's WFQ virtual clock).
///
/// The overlay is as deterministic as the clean semester: the burst
/// draws from its own seeded streams (`u64::MAX - 2 - day`, disjoint
/// from every organic stream), so a perturbed semester is a pure
/// function of config too. `None` perturbation reproduces the clean
/// semester byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbation {
    /// First day of the deadline storm.
    pub storm_start_day: usize,
    /// Storm length in days.
    pub storm_days: usize,
    /// Per-mille arrival-rate multiplier during the storm (6000 = 6×).
    pub storm_per_mille: u64,
    /// The tenant mounting the hot-spot burst.
    pub hot_tenant: u32,
    /// Hot-spot submissions per storm day (admission control clips
    /// them to the per-tenant daily cap; WFQ still serializes the
    /// admitted ones).
    pub hot_submissions: u32,
}

impl Perturbation {
    /// The canonical storm: 6× arrivals on two late-semester days
    /// (deep enough into the semester that anomaly baselines exist),
    /// with tenant 7 bursting an expensive fixed job.
    pub fn storm() -> Self {
        Perturbation {
            storm_start_day: 18,
            storm_days: 2,
            storm_per_mille: 6_000,
            hot_tenant: 7,
            hot_submissions: 200,
        }
    }

    /// True when `day` is inside the storm.
    pub fn active(&self, day: usize) -> bool {
        day >= self.storm_start_day && day < self.storm_start_day + self.storm_days
    }

    /// The hot-spot job: a fixed expensive spec (outside the organic
    /// [`JobUniverse`] — its iteration count exceeds every generated
    /// spec) so the burst shares one content digest, one route key,
    /// one shard.
    pub fn hot_job(&self) -> JobSpec {
        JobSpec::LoopSim {
            iterations: 60_000,
            cost: CostSpec::Uniform { cycles: 2_000 },
            schedule: ScheduleSpec::StaticBlock,
            threads: 4,
        }
    }
}

/// Shape of a simulated semester of open-loop traffic.
///
/// Everything downstream — arrival times, counts, specs — is a pure
/// function of this config, derived through seeded
/// [`StreamSeeder`] streams. Two hosts with the same config generate
/// byte-identical semesters.
#[derive(Debug, Clone)]
pub struct SemesterConfig {
    /// Master seed for every derived stream.
    pub seed: u64,
    /// Course tenants (teams across all concurrent sections).
    pub tenants: u32,
    /// Simulated days (weeks × 7; weekends are quiet, not absent).
    pub days: usize,
    /// Baseline mean submissions per tenant per unit-intensity day.
    /// The realised mean is this times the average intensity (~1.9×).
    pub base_rate: f64,
    /// Distinct specs in the bounded job universe.
    pub unique_jobs: usize,
    /// Optional seeded fault injection; `None` is the clean semester.
    pub perturbation: Option<Perturbation>,
}

impl SemesterConfig {
    /// The full benchmark semester: ~2 000 tenants over 15 weeks at a
    /// realised ~4.8 submissions/tenant/day — about a million
    /// submissions, three orders of magnitude past the course week.
    pub fn full() -> Self {
        SemesterConfig {
            seed: 2_026,
            tenants: 2_000,
            days: 105,
            base_rate: 2.54,
            unique_jobs: 4_096,
            perturbation: None,
        }
    }

    /// A down-scaled semester for determinism checks and the report
    /// artefact: same generator, same curves, ~15 000 submissions.
    pub fn smoke() -> Self {
        SemesterConfig {
            seed: 2_026,
            tenants: 150,
            days: 21,
            base_rate: 2.54,
            unique_jobs: 512,
            perturbation: None,
        }
    }

    /// This config with the canonical [`Perturbation::storm`] applied.
    pub fn with_storm(mut self) -> Self {
        self.perturbation = Some(Perturbation::storm());
        self
    }

    /// Ticket weight of a tenant (same 1..=3 cycling as the course
    /// week).
    pub fn tenant_tickets(&self, tenant: u32) -> u32 {
        tickets(tenant)
    }

    /// Per-mille intensity multiplier for a day: weekday curve (quiet
    /// weekends), a 3× deadline spike every Friday, and a linear
    /// semester ramp from 80% to 120%. Integer arithmetic only, so the
    /// curve is trivially host-independent.
    pub fn intensity_per_mille(&self, day: usize) -> u64 {
        // Mon..Sun in per-mille; Friday (index 4) is deadline day.
        const WEEKDAY: [u64; 7] = [1_000, 1_100, 1_200, 1_300, 4_500, 800, 600];
        let weekday = WEEKDAY[day % 7];
        // Linear ramp 800‰ → 1200‰ across the semester.
        let span = (self.days.max(2) - 1) as u64;
        let ramp = 800 + 400 * day as u64 / span;
        let base = weekday * ramp / 1_000;
        match &self.perturbation {
            Some(p) if p.active(day) => base * p.storm_per_mille / 1_000,
            _ => base,
        }
    }

    /// Per-mille activity multiplier for a tenant: 500‰..2000‰ in 16
    /// steps, so the cohort mixes lurkers and heavy hitters.
    pub fn activity_per_mille(&self, tenant: u32) -> u64 {
        500 + 100 * (tenant % 16) as u64
    }

    /// The Poisson mean for one (tenant, day) cell.
    pub fn lambda(&self, tenant: u32, day: usize) -> f64 {
        let per_mille = self.intensity_per_mille(day) * self.activity_per_mille(tenant);
        self.base_rate * (per_mille as f64 / 1_000_000.0)
    }
}

/// `e^(-x)` for `x ≥ 0` using only `+ - * /` on f64 — IEEE-exact on
/// every host, unlike libm's `exp`. Halve the argument into
/// `[0, 1/16]`, run a fixed 8-term Taylor series, square back up.
/// Absolute error is far below what Poisson inversion can observe,
/// and — the property we actually need — the result is bit-identical
/// everywhere.
pub fn exp_neg(x: f64) -> f64 {
    debug_assert!(x >= 0.0);
    let mut x = x;
    let mut halvings = 0u32;
    while x > 0.0625 {
        x *= 0.5;
        halvings += 1;
        if halvings > 64 {
            return 0.0;
        }
    }
    let mut term = 1.0f64;
    let mut sum = 1.0f64;
    for k in 1..=8u32 {
        term *= -x / k as f64;
        sum += term;
    }
    for _ in 0..halvings {
        sum *= sum;
    }
    sum
}

/// Knuth's product-of-uniforms Poisson sampler over [`exp_neg`].
/// Deterministic given the RNG stream; fine for the λ ≤ ~30 this
/// workload produces.
pub fn poisson(rng: &mut Xoshiro256, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let floor = exp_neg(lambda);
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.next_f64();
        if p <= floor {
            return k;
        }
        k += 1;
        if k > 100_000 {
            return k; // unreachable at sane λ; bounds the loop anyway
        }
    }
}

/// The bounded universe of distinct jobs a semester draws from, with
/// Zipf-like popularity: a hot head of shared exercises everyone
/// submits, a long cold tail of one-off explorations. Bounding the
/// universe is what makes cache reuse realistic at ~1M submissions.
pub struct JobUniverse {
    specs: Vec<JobSpec>,
    /// Cumulative integer popularity weights, aligned with `specs`.
    cumulative: Vec<u64>,
}

impl JobUniverse {
    /// Builds `unique` distinct specs from `seed`. Only cheap kinds
    /// (loop/reduction/map-reduce simulations) — the semester is an
    /// arrival-process benchmark, not a compute one.
    pub fn new(seed: u64, unique: usize) -> Self {
        use std::collections::HashSet;
        let mut rng = StreamSeeder::new(seed).stream(u64::MAX);
        let mut specs = Vec::with_capacity(unique);
        let mut seen: HashSet<u64> = HashSet::with_capacity(unique);
        while specs.len() < unique {
            let spec = Self::draw_spec(&mut rng);
            if spec.validate().is_ok() && seen.insert(spec.digest()) {
                specs.push(spec);
            }
        }
        // Zipf(1) popularity by construction order: rank r gets weight
        // ~1e6/(r+1), so the head is hot and the tail is long.
        let mut cumulative = Vec::with_capacity(unique);
        let mut total = 0u64;
        for rank in 0..unique as u64 {
            total += (1_000_000 / (rank + 1)).max(1);
            cumulative.push(total);
        }
        JobUniverse { specs, cumulative }
    }

    fn draw_spec(rng: &mut Xoshiro256) -> JobSpec {
        let schedules = [
            ScheduleSpec::StaticBlock,
            ScheduleSpec::StaticChunk { chunk: 16 },
            ScheduleSpec::Dynamic { chunk: 16 },
            ScheduleSpec::Dynamic { chunk: 32 },
            ScheduleSpec::Guided { min_chunk: 8 },
        ];
        match rng.next_below(20) {
            // 60%: loop patternlets.
            0..=11 => JobSpec::LoopSim {
                iterations: 1_000 + 250 * rng.next_below(64) as u64,
                cost: match rng.next_below(3) {
                    0 => CostSpec::Uniform {
                        cycles: 60 + 20 * rng.next_below(8) as u64,
                    },
                    1 => CostSpec::Linear {
                        base: 40 + 10 * rng.next_below(6) as u64,
                        slope: 1 + rng.next_below(3) as u64,
                    },
                    _ => CostSpec::Alternating {
                        even: 50 + 10 * rng.next_below(4) as u64,
                        odd: 200 + 50 * rng.next_below(4) as u64,
                    },
                },
                schedule: schedules[rng.next_below(5)],
                threads: [2, 4, 8][rng.next_below(3)],
            },
            // 25%: reduction exercises.
            12..=16 => JobSpec::ReductionSim {
                iterations: 500 + 125 * rng.next_below(32) as u64,
                iter_cost: 60 + 15 * rng.next_below(8) as u64,
                threads: [2, 4, 8][rng.next_below(3)],
                style: [
                    ReductionStyleSpec::Tree,
                    ReductionStyleSpec::SerialCombine,
                    ReductionStyleSpec::AtomicPerIteration,
                ][rng.next_below(3)],
            },
            // 15%: map-reduce reading exercises.
            _ => JobSpec::MapReduce {
                workload: if rng.next_below(4) == 0 {
                    MrWorkload::Grep {
                        pattern: ["race", "parallel", "thread", "cache"][rng.next_below(4)]
                            .to_string(),
                    }
                } else {
                    MrWorkload::WordCount
                },
                docs: 6 + 2 * rng.next_below(6) as u32,
                seed: 2_000 + rng.next_below(40) as u64,
                map_workers: [2, 4][rng.next_below(2)],
                reduce_workers: 2,
            },
        }
    }

    /// Number of distinct specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Draws one spec by popularity (binary search over the cumulative
    /// weights).
    pub fn sample(&self, rng: &mut Xoshiro256) -> &JobSpec {
        let total = *self.cumulative.last().expect("non-empty universe");
        let r = rng.next_below(total as usize) as u64;
        let idx = self.cumulative.partition_point(|&c| c <= r);
        &self.specs[idx]
    }
}

/// Generates one day of open-loop semester traffic, sorted by
/// `(vt, tenant, per-tenant sequence)` — a total order, so the arrival
/// list is deterministic and unambiguous.
///
/// Each (tenant, day) cell owns its own seeded stream (index
/// `day·tenants + tenant` — injective), so the traffic for any day is
/// reproducible in isolation: shard sweeps, resumed runs, and spot
/// checks all see identical arrivals.
pub fn semester_day(cfg: &SemesterConfig, universe: &JobUniverse, day: usize) -> Vec<Arrival> {
    let seeder = StreamSeeder::new(cfg.seed);
    let mut keyed: Vec<(u64, u32, u64, Submission)> = Vec::new();
    for tenant in 0..cfg.tenants {
        let mut rng = seeder.stream(day as u64 * cfg.tenants as u64 + tenant as u64);
        let n = poisson(&mut rng, cfg.lambda(tenant, day));
        let weight = cfg.tenant_tickets(tenant);
        for seq in 0..n {
            let vt = rng.next_below(DAY_VT as usize) as u64;
            let spec = universe.sample(&mut rng).clone();
            keyed.push((vt, tenant, seq, Submission::new(tenant, weight, spec)));
        }
    }
    // The hot-spot burst rides on its own stream family
    // (`u64::MAX - 2 - day`), disjoint from the per-(tenant, day)
    // streams and the universe stream, so the organic traffic is
    // byte-identical with and without the perturbation.
    if let Some(p) = cfg.perturbation.as_ref().filter(|p| p.active(day)) {
        let mut rng = seeder.stream(u64::MAX - 2 - day as u64);
        let spec = p.hot_job();
        let weight = cfg.tenant_tickets(p.hot_tenant);
        for i in 0..p.hot_submissions {
            let vt = rng.next_below(DAY_VT as usize) as u64;
            // Sequence numbers far past any organic count keep the
            // (vt, tenant, seq) sort key total and collision-free.
            keyed.push((
                vt,
                p.hot_tenant,
                1 << 32 | i as u64,
                Submission::new(p.hot_tenant, weight, spec.clone()),
            ));
        }
    }
    keyed.sort_by_key(|(vt, tenant, seq, _)| (*vt, *tenant, *seq));
    keyed
        .into_iter()
        .map(|(vt, _, _, sub)| Arrival { vt, sub })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn trace_is_pure_and_sized_as_documented() {
        let a = course_week();
        let b = course_week();
        assert_eq!(a.len(), DAYS);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            for (sa, sb) in x.iter().zip(y) {
                assert_eq!(sa.spec, sb.spec);
                assert_eq!((sa.tenant, sa.tickets), (sb.tenant, sb.tickets));
            }
        }
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, 396, "trace shape changed — update the docs");
    }

    #[test]
    fn reuse_structure_leaves_few_unique_specs() {
        let week = course_week();
        let unique: HashSet<u64> = week.iter().flatten().map(|s| s.spec.digest()).collect();
        let total: usize = week.iter().map(Vec::len).sum();
        // The workload's point: far more submissions than distinct jobs.
        assert_eq!(unique.len(), 43, "unique spec count changed");
        assert!(unique.len() * 4 < total);
    }

    #[test]
    fn every_spec_in_the_trace_validates() {
        for sub in course_week().iter().flatten() {
            assert!(sub.spec.validate().is_ok(), "{:?}", sub.spec);
        }
    }

    #[test]
    fn all_tenants_and_weights_appear() {
        let week = course_week();
        let tenants: HashSet<u32> = week.iter().flatten().map(|s| s.tenant).collect();
        assert_eq!(tenants.len(), TEAMS as usize);
        let weights: HashSet<u32> = week.iter().flatten().map(|s| s.tickets).collect();
        assert_eq!(weights, HashSet::from([1, 2, 3]));
    }

    #[test]
    fn exp_neg_is_a_faithful_exponential() {
        assert_eq!(exp_neg(0.0), 1.0);
        // Spot values against the mathematical exponential.
        for &(x, want) in &[
            (1.0, 0.367_879_441_171_442_3),
            (5.0, 0.006_737_946_999_085_467),
        ] {
            let got = exp_neg(x);
            assert!((got - want).abs() < 1e-12, "exp_neg({x}) = {got}");
        }
        // Determinism is the real contract: bit-identical on repeat.
        assert_eq!(exp_neg(17.3).to_bits(), exp_neg(17.3).to_bits());
        assert!(exp_neg(700.0) >= 0.0);
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let lambda = 6.0;
        let n = 4_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.2, "mean {mean} vs λ {lambda}");
    }

    #[test]
    fn universe_is_bounded_valid_and_skewed() {
        let u = JobUniverse::new(42, 256);
        assert_eq!(u.len(), 256);
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            let spec = u.sample(&mut rng);
            assert!(spec.validate().is_ok());
            *counts.entry(spec.digest()).or_insert(0u64) += 1;
        }
        // Zipf head: the hottest spec dominates any uniform share.
        let top = counts.values().max().copied().unwrap_or(0);
        assert!(top > 500, "head not hot enough: {top}/10000");
        assert!(counts.len() > 100, "tail collapsed: {}", counts.len());
    }

    #[test]
    fn semester_day_is_deterministic_sorted_and_day_local() {
        let cfg = SemesterConfig::smoke();
        let u = JobUniverse::new(cfg.seed, cfg.unique_jobs);
        let a = semester_day(&cfg, &u, 4);
        let b = semester_day(&cfg, &u, 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.vt, y.vt);
            assert_eq!(x.sub.spec.digest(), y.sub.spec.digest());
        }
        assert!(a.windows(2).all(|w| w[0].vt <= w[1].vt), "not sorted");
        assert!(a.iter().all(|arr| arr.vt < DAY_VT));
        // Day 4 (first Friday) is deadline day: busier than Sunday.
        let sunday = semester_day(&cfg, &u, 6);
        assert!(
            a.len() > 3 * sunday.len(),
            "deadline burst missing: fri {} vs sun {}",
            a.len(),
            sunday.len()
        );
    }

    #[test]
    fn perturbation_leaves_organic_traffic_byte_identical() {
        let clean = SemesterConfig::smoke();
        let stormy = SemesterConfig::smoke().with_storm();
        let u = JobUniverse::new(clean.seed, clean.unique_jobs);
        let p = stormy.perturbation.clone().unwrap();
        // Outside the storm the two semesters are the same trace.
        for day in [0, 4, 17, 20] {
            assert!(!p.active(day));
            let a = semester_day(&clean, &u, day);
            let b = semester_day(&stormy, &u, day);
            assert_eq!(a.len(), b.len(), "day {day}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.vt, x.sub.spec.digest()), (y.vt, y.sub.spec.digest()));
            }
        }
        // Inside the storm arrivals multiply and the hot job appears.
        let storm_day = p.storm_start_day;
        let a = semester_day(&clean, &u, storm_day);
        let b = semester_day(&stormy, &u, storm_day);
        assert!(
            b.len() > 4 * a.len(),
            "storm missing: clean {} vs stormy {}",
            a.len(),
            b.len()
        );
        let hot = p.hot_job().digest();
        let hot_count = b.iter().filter(|ar| ar.sub.spec.digest() == hot).count();
        assert_eq!(hot_count, p.hot_submissions as usize);
        assert!(a.iter().all(|ar| ar.sub.spec.digest() != hot));
        // Determinism of the perturbed trace itself.
        let c = semester_day(&stormy, &u, storm_day);
        assert_eq!(b.len(), c.len());
        for (x, y) in b.iter().zip(&c) {
            assert_eq!((x.vt, x.sub.spec.digest()), (y.vt, y.sub.spec.digest()));
        }
    }

    #[test]
    fn hot_job_validates_and_sits_outside_the_universe() {
        let p = Perturbation::storm();
        assert!(p.hot_job().validate().is_ok());
        let cfg = SemesterConfig::smoke();
        let u = JobUniverse::new(cfg.seed, cfg.unique_jobs);
        let hot = p.hot_job().digest();
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..5_000 {
            assert_ne!(u.sample(&mut rng).digest(), hot);
        }
    }

    #[test]
    fn full_semester_is_about_a_million_submissions() {
        // Estimate from the analytic means — running the generator for
        // all 105 days is the benchmark's job, not the unit test's.
        let cfg = SemesterConfig::full();
        let mut expected = 0.0;
        for day in 0..cfg.days {
            for tenant in 0..cfg.tenants {
                expected += cfg.lambda(tenant, day);
            }
        }
        assert!(
            (800_000.0..1_400_000.0).contains(&expected),
            "semester sized {expected}, want ~1M"
        );
    }
}
