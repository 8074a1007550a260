//! The deterministic multi-tenant job service.
//!
//! A batch runs in five phases, and only one of them is parallel:
//!
//! 1. **Admission** (submission order): validation, a bounded queue,
//!    per-tenant in-flight caps — the typed [`RejectReason`] outcomes.
//! 2. **Planning** (pure): the WFQ dispatch plan ([`crate::sched`]).
//! 3. **Resolution** (dispatch order, coordinator only): each planned
//!    job either hits the cache, joins an identical job earlier in the
//!    plan (batch-level single-flight), or claims a computation.
//! 4. **Execution** (parallel): the claimed computations — and only
//!    those — fan out over the task-order pool
//!    ([`stats::pool::run_indexed`]). Workers run
//!    [`crate::exec::execute`], a pure function, and never touch the
//!    cache.
//! 5. **Fill** (dispatch order, coordinator only): computed results
//!    are inserted into the cache, joins resolve to their leader's
//!    `Arc`, and outcomes are assembled in submission order.
//!
//! Because every cache mutation and every ordering decision happens on
//! the coordinator in an order fixed by the plan, the entire
//! [`BatchReport`] — outcomes, dispatch order, cache contents, stats —
//! is a pure function of the submitted workload, bit-identical for any
//! worker count. The worker pool only changes how fast phase 4 runs.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cache::{CacheEvent, ResultCache};
use crate::exec;
use crate::result::JobResult;
use crate::sched::{self, Submission};
use crate::spec::{JobSpec, SpecError};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads executing claimed computations; 0 or 1 runs
    /// them on the thread that called [`Service::run_batch`].
    pub workers: usize,
    /// Most submissions one batch admits (the bounded queue).
    pub queue_capacity: usize,
    /// Most submissions one tenant may have admitted per batch.
    pub tenant_cap: usize,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Whether identical jobs in one batch share a single computation.
    pub single_flight: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 4_096,
            tenant_cap: 256,
            cache_capacity: 512,
            single_flight: true,
        }
    }
}

impl ServiceConfig {
    /// The default configuration with `workers` worker threads.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        }
    }

    /// The cold baseline the serve benchmark compares against: no
    /// cache, no deduplication — every admitted job computes.
    pub fn baseline(workers: usize) -> Self {
        ServiceConfig {
            workers,
            cache_capacity: 0,
            single_flight: false,
            ..ServiceConfig::default()
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The batch's bounded queue was full.
    QueueFull,
    /// The tenant hit its per-batch in-flight cap.
    TenantCap,
    /// The spec failed validation.
    InvalidSpec(SpecError),
}

impl RejectReason {
    pub(crate) fn tag(self) -> u8 {
        match self {
            RejectReason::QueueFull => 0,
            RejectReason::TenantCap => 1,
            RejectReason::InvalidSpec(_) => 2,
        }
    }
}

/// A successfully served job.
#[derive(Debug, Clone)]
pub struct DoneJob {
    /// The (possibly shared) result.
    pub result: Arc<JobResult>,
    /// How the result was obtained.
    pub source: CacheEvent,
    /// Virtual start time on the tenant's WFQ clock.
    pub start_vt: u64,
    /// Virtual finish time — the job's sojourn, since batches arrive
    /// at virtual time zero.
    pub finish_vt: u64,
}

/// Outcome of one submission, in submission order.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Served.
    Done(DoneJob),
    /// Refused at admission.
    Rejected(RejectReason),
}

/// Deterministic batch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Submissions offered.
    pub submitted: u64,
    /// Submissions admitted past admission control.
    pub accepted: u64,
    /// Rejections: queue full.
    pub rejected_queue_full: u64,
    /// Rejections: tenant cap.
    pub rejected_tenant_cap: u64,
    /// Rejections: invalid spec.
    pub rejected_invalid: u64,
    /// Jobs served from the ready cache.
    pub hits: u64,
    /// Jobs deduplicated onto an identical job in the same batch.
    pub joins: u64,
    /// Jobs actually computed.
    pub computed: u64,
    /// Cache entries evicted while filling.
    pub evictions: u64,
}

/// Everything one batch produced.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-submission outcomes, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Submission indices in dispatch order — the WFQ plan's verdict.
    pub dispatch: Vec<usize>,
    /// Batch counters.
    pub stats: BatchStats,
}

impl BatchReport {
    /// Order-sensitive FNV-1a digest over dispatch order, every
    /// outcome (result digests, sources, virtual times, reject
    /// reasons) and the counters — the determinism oracle: two batch
    /// runs are "the same" iff their digests match.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.outcomes.len() * 40);
        for d in &self.dispatch {
            bytes.extend((*d as u64).to_le_bytes());
        }
        for outcome in &self.outcomes {
            match outcome {
                JobOutcome::Done(done) => {
                    bytes.push(0);
                    bytes.extend(done.result.digest().to_le_bytes());
                    bytes.push(done.source.tag());
                    bytes.extend(done.start_vt.to_le_bytes());
                    bytes.extend(done.finish_vt.to_le_bytes());
                }
                JobOutcome::Rejected(reason) => {
                    bytes.push(1);
                    bytes.push(reason.tag());
                }
            }
        }
        let s = &self.stats;
        for v in [
            s.submitted,
            s.accepted,
            s.rejected_queue_full,
            s.rejected_tenant_cap,
            s.rejected_invalid,
            s.hits,
            s.joins,
            s.computed,
            s.evictions,
        ] {
            bytes.extend(v.to_le_bytes());
        }
        obs::trace::fnv1a(&bytes)
    }

    /// Fraction of admitted jobs served without computing: cache hits
    /// plus batch joins over accepted.
    pub fn hit_rate(&self) -> f64 {
        if self.stats.accepted == 0 {
            return 0.0;
        }
        (self.stats.hits + self.stats.joins) as f64 / self.stats.accepted as f64
    }

    /// Virtual sojourn times (finish on the tenant clock; batches
    /// arrive at virtual time zero) of every served job, ascending.
    pub fn sojourns_vt(&self) -> Vec<u64> {
        let mut s: Vec<u64> = self
            .outcomes
            .iter()
            .filter_map(|o| match o {
                JobOutcome::Done(d) => Some(d.finish_vt),
                JobOutcome::Rejected(_) => None,
            })
            .collect();
        s.sort_unstable();
        s
    }

    /// Records the batch counters and the virtual-sojourn histogram
    /// into `registry`, all [`obs::Domain::Virtual`]: read from this
    /// deterministic report, never from host timing.
    pub fn record_metrics(&self, registry: &obs::Registry) {
        use obs::Domain::Virtual;
        let s = &self.stats;
        for (name, value) in [
            ("serve/submitted", s.submitted),
            ("serve/accepted", s.accepted),
            ("serve/rejected/queue_full", s.rejected_queue_full),
            ("serve/rejected/tenant_cap", s.rejected_tenant_cap),
            ("serve/rejected/invalid", s.rejected_invalid),
            ("serve/cache/hits", s.hits),
            ("serve/cache/joins", s.joins),
            ("serve/jobs_computed", s.computed),
            ("serve/cache/evictions", s.evictions),
        ] {
            registry.counter(name, Virtual).add(value);
        }
        let sojourn = registry.histogram("serve/sojourn_vt", Virtual, &SOJOURN_EDGES);
        for v in self.sojourns_vt() {
            sojourn.record(v);
        }
    }

    /// The batch's scheduler trace: one lane per tenant carrying job
    /// spans over `[start_vt, finish_vt]`, a cache lane of
    /// hit/join/compute instants, and a queue-depth counter lane — all
    /// in WFQ virtual time, so the trace is byte-identical for any
    /// worker count. `submissions` must be the batch this report came
    /// from; it supplies each job's tenant, kind and cost estimate.
    pub fn trace(
        &self,
        submissions: &[Submission],
        tcfg: &obs::trace::TraceConfig,
    ) -> obs::trace::Trace {
        use obs::trace::category;
        let mut tenants: Vec<u32> = self
            .dispatch
            .iter()
            .map(|&i| submissions[i].tenant)
            .collect();
        tenants.sort_unstable();
        tenants.dedup();

        let mut rec = obs::trace::TraceRecorder::new(tcfg);
        let lane_of: HashMap<u32, u32> = tenants
            .iter()
            .map(|&t| (t, rec.lane(format!("tenant/{t}"))))
            .collect();
        let cache_lane = rec.lane("cache");
        let queue_lane = rec.lane("queue_depth");

        let total = self.dispatch.len() as u64;
        for (pos, &index) in self.dispatch.iter().enumerate() {
            let JobOutcome::Done(done) = &self.outcomes[index] else {
                continue;
            };
            let sub = &submissions[index];
            let lane = lane_of[&sub.tenant];
            rec.buf(lane).begin(
                done.start_vt,
                format!("{}#{index}", sub.spec.kind()),
                category::JOB,
                sub.spec.cost_estimate(),
            );
            rec.buf(lane).end(done.finish_vt);
            rec.buf(cache_lane).instant(
                done.finish_vt,
                done.source.label(),
                category::CACHE,
                index as u64,
            );
            rec.buf(queue_lane).counter(
                done.finish_vt,
                "queue_depth",
                category::QUEUE,
                total - pos as u64 - 1,
            );
        }
        rec.finish()
    }

    /// Nearest-rank percentile (`p` in 0..=1) of the virtual sojourns;
    /// 0 when nothing was served.
    pub fn sojourn_percentile_vt(&self, p: f64) -> u64 {
        let s = self.sojourns_vt();
        if s.is_empty() {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * (s.len() - 1) as f64).round() as usize;
        s[rank]
    }
}

/// Edges of the virtual-sojourn histogram (cycles·scale units).
const SOJOURN_EDGES: [u64; 8] = [
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
    1_000_000_000_000,
];

/// The job service: admission control, the WFQ scheduler, the worker
/// pool and the content-addressed cache behind one entry point. The
/// cache persists across batches, so a course week served day by day
/// accumulates reuse.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    cache: ResultCache,
}

enum Resolution {
    Hit(Arc<JobResult>),
    Join { leader: usize },
    Compute { slot: usize },
}

impl Service {
    /// Creates a service with `config`.
    pub fn new(config: ServiceConfig) -> Self {
        Service {
            cache: ResultCache::new(config.cache_capacity),
            config,
        }
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Runs one batch of submissions to completion. See the module
    /// docs for the five phases; the report is bit-identical for any
    /// `workers` setting.
    pub fn run_batch(&self, submissions: &[Submission]) -> BatchReport {
        // Phase 1: admission, in submission order.
        let mut outcomes: Vec<Option<JobOutcome>> = (0..submissions.len()).map(|_| None).collect();
        let mut accepted: Vec<(usize, &Submission)> = Vec::new();
        let mut per_tenant: HashMap<u32, usize> = HashMap::new();
        let mut stats = BatchStats {
            submitted: submissions.len() as u64,
            ..BatchStats::default()
        };
        for (index, sub) in submissions.iter().enumerate() {
            if let Err(err) = sub.spec.validate() {
                outcomes[index] = Some(JobOutcome::Rejected(RejectReason::InvalidSpec(err)));
                stats.rejected_invalid += 1;
                continue;
            }
            if accepted.len() >= self.config.queue_capacity {
                outcomes[index] = Some(JobOutcome::Rejected(RejectReason::QueueFull));
                stats.rejected_queue_full += 1;
                continue;
            }
            let in_flight = per_tenant.entry(sub.tenant).or_insert(0);
            if *in_flight >= self.config.tenant_cap {
                outcomes[index] = Some(JobOutcome::Rejected(RejectReason::TenantCap));
                stats.rejected_tenant_cap += 1;
                continue;
            }
            *in_flight += 1;
            accepted.push((index, sub));
            stats.accepted += 1;
        }

        // Phase 2: the WFQ plan — pure, computed before any worker runs.
        let planned = sched::plan(&accepted);
        let dispatch: Vec<usize> = planned.iter().map(|p| p.submission).collect();

        // Phase 3: resolution against the cache, in dispatch order.
        let mut resolutions: Vec<Resolution> = Vec::with_capacity(planned.len());
        let mut leaders: HashMap<u64, usize> = HashMap::new();
        let mut to_compute: Vec<&JobSpec> = Vec::new();
        for (pos, p) in planned.iter().enumerate() {
            if let Some(result) = self.cache.lookup_touch(p.digest) {
                stats.hits += 1;
                resolutions.push(Resolution::Hit(result));
                continue;
            }
            if self.config.single_flight {
                if let Some(&leader) = leaders.get(&p.digest) {
                    stats.joins += 1;
                    resolutions.push(Resolution::Join { leader });
                    continue;
                }
            }
            leaders.insert(p.digest, pos);
            let slot = to_compute.len();
            to_compute.push(&submissions[p.submission].spec);
            resolutions.push(Resolution::Compute { slot });
        }
        stats.computed = to_compute.len() as u64;

        // Phase 4: the only parallel phase — compute the claimed jobs.
        let computed = stats::pool::run_indexed(
            to_compute.len(),
            self.config.workers,
            || (),
            |_, slot| Arc::new(exec::execute(to_compute[slot])),
        );

        // Phase 5: fill, in dispatch order — the cache mutates here
        // and only here, on the coordinator.
        let mut by_plan: Vec<Option<Arc<JobResult>>> = (0..planned.len()).map(|_| None).collect();
        for (pos, (p, resolution)) in planned.iter().zip(&resolutions).enumerate() {
            let (result, source) = match resolution {
                Resolution::Hit(result) => (Arc::clone(result), CacheEvent::Hit),
                Resolution::Compute { slot } => {
                    let result = Arc::clone(&computed[*slot]);
                    stats.evictions += self.cache.insert(p.digest, Arc::clone(&result));
                    (result, CacheEvent::Computed)
                }
                Resolution::Join { leader } => {
                    let result = by_plan[*leader]
                        .clone()
                        .expect("leader resolves earlier in dispatch order");
                    (result, CacheEvent::Joined)
                }
            };
            by_plan[pos] = Some(Arc::clone(&result));
            outcomes[p.submission] = Some(JobOutcome::Done(DoneJob {
                result,
                source,
                start_vt: p.start_vt,
                finish_vt: p.finish_vt,
            }));
        }

        BatchReport {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every submission resolves or rejects"))
                .collect(),
            dispatch,
            stats,
        }
    }

    /// Digest of the cache's LRU state — the persistent half of the
    /// determinism contract across batches.
    pub fn cache_digest(&self) -> u64 {
        self.cache.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CostSpec, ScheduleSpec};

    fn loop_spec(iterations: u64, threads: u32) -> JobSpec {
        JobSpec::LoopSim {
            iterations,
            cost: CostSpec::Uniform { cycles: 100 },
            schedule: ScheduleSpec::StaticBlock,
            threads,
        }
    }

    fn small_batch() -> Vec<Submission> {
        (0..12)
            .map(|i| Submission::new(i % 4, 1 + i % 3, loop_spec(500 + 100 * (i % 2) as u64, 4)))
            .collect()
    }

    #[test]
    fn batch_report_is_worker_count_invariant() {
        let subs = small_batch();
        let reference = Service::new(ServiceConfig::with_workers(1)).run_batch(&subs);
        for workers in [2, 4, 8] {
            let service = Service::new(ServiceConfig::with_workers(workers));
            let report = service.run_batch(&subs);
            assert_eq!(report.dispatch, reference.dispatch, "{workers} workers");
            assert_eq!(report.digest(), reference.digest(), "{workers} workers");
        }
    }

    #[test]
    fn cache_state_is_worker_count_invariant_across_batches() {
        let day1 = small_batch();
        let day2: Vec<Submission> = small_batch()
            .into_iter()
            .chain((0..4).map(|t| Submission::new(t, 1, loop_spec(9_000 + t as u64, 2))))
            .collect();
        let mut digests = Vec::new();
        for workers in [1, 4] {
            let service = Service::new(ServiceConfig::with_workers(workers));
            let a = service.run_batch(&day1);
            let b = service.run_batch(&day2);
            digests.push((a.digest(), b.digest(), service.cache_digest()));
        }
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn identical_jobs_in_one_batch_compute_once() {
        let subs: Vec<Submission> = (0..6)
            .map(|t| Submission::new(t, 1, loop_spec(1_000, 4)))
            .collect();
        let service = Service::new(ServiceConfig::default());
        let report = service.run_batch(&subs);
        assert_eq!(report.stats.computed, 1);
        assert_eq!(report.stats.joins, 5);
        // All six results are the same allocation.
        let first = match &report.outcomes[0] {
            JobOutcome::Done(d) => Arc::clone(&d.result),
            JobOutcome::Rejected(_) => panic!("rejected"),
        };
        for outcome in &report.outcomes {
            match outcome {
                JobOutcome::Done(d) => assert!(Arc::ptr_eq(&first, &d.result)),
                JobOutcome::Rejected(_) => panic!("rejected"),
            }
        }
    }

    #[test]
    fn second_batch_hits_what_the_first_computed() {
        let subs = small_batch();
        let service = Service::new(ServiceConfig::default());
        let first = service.run_batch(&subs);
        assert!(first.stats.computed > 0);
        let second = service.run_batch(&subs);
        assert_eq!(second.stats.computed, 0, "{:?}", second.stats);
        assert_eq!(second.stats.hits, second.stats.accepted);
        assert!((second.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn admission_control_rejects_past_the_caps() {
        let config = ServiceConfig {
            queue_capacity: 5,
            tenant_cap: 2,
            ..ServiceConfig::default()
        };
        // Tenant 0 floods; tenants 1-3 each send one job.
        let mut subs: Vec<Submission> = (0..4)
            .map(|_| Submission::new(0, 1, loop_spec(1_000, 4)))
            .collect();
        subs.extend((1..4).map(|t| Submission::new(t, 1, loop_spec(2_000 + t as u64, 4))));
        let report = Service::new(config).run_batch(&subs);
        assert_eq!(report.stats.rejected_tenant_cap, 2, "{:?}", report.stats);
        assert_eq!(report.stats.rejected_queue_full, 0, "{:?}", report.stats);
        assert_eq!(report.stats.accepted, 5);
        assert!(matches!(
            report.outcomes[2],
            JobOutcome::Rejected(RejectReason::TenantCap)
        ));
        // A full queue rejects the tail regardless of tenant.
        let config = ServiceConfig {
            queue_capacity: 2,
            ..ServiceConfig::default()
        };
        let report = Service::new(config).run_batch(&subs);
        assert_eq!(report.stats.accepted, 2);
        assert_eq!(report.stats.rejected_queue_full, 5);
    }

    #[test]
    fn invalid_specs_reject_with_the_spec_error() {
        let subs = vec![
            Submission::new(0, 1, loop_spec(1_000, 0)),
            Submission::new(0, 1, loop_spec(1_000, 4)),
        ];
        let report = Service::new(ServiceConfig::default()).run_batch(&subs);
        assert!(matches!(
            report.outcomes[0],
            JobOutcome::Rejected(RejectReason::InvalidSpec(SpecError::BadThreadCount))
        ));
        assert!(matches!(report.outcomes[1], JobOutcome::Done(_)));
        assert_eq!(report.stats.rejected_invalid, 1);
    }

    #[test]
    fn replication_specs_with_a_zero_count_reject_instead_of_panicking() {
        let replication =
            |permutations, bootstrap_reps, section_permutations| JobSpec::Replication {
                replicates: 2,
                num_students: 24,
                master_seed: 11,
                permutations,
                bootstrap_reps,
                section_permutations,
            };
        let subs: Vec<Submission> = [
            replication(0, 150, 100),
            replication(200, 0, 100),
            replication(200, 150, 0),
        ]
        .into_iter()
        .map(|spec| Submission::new(0, 1, spec))
        .collect();
        for sub in &subs {
            assert_eq!(sub.spec.validate(), Err(SpecError::EmptyReplication));
        }
        let report = Service::new(ServiceConfig::default()).run_batch(&subs);
        assert_eq!(report.stats.rejected_invalid, 3);
        for outcome in &report.outcomes {
            assert!(matches!(
                outcome,
                JobOutcome::Rejected(RejectReason::InvalidSpec(SpecError::EmptyReplication))
            ));
        }
    }

    #[test]
    fn baseline_disables_cache_and_dedup() {
        let subs: Vec<Submission> = (0..4)
            .map(|t| Submission::new(t, 1, loop_spec(1_000, 4)))
            .collect();
        let service = Service::new(ServiceConfig::baseline(2));
        let report = service.run_batch(&subs);
        assert_eq!(report.stats.computed, 4, "all identical jobs recompute");
        assert_eq!(report.stats.hits + report.stats.joins, 0);
        let again = service.run_batch(&subs);
        assert_eq!(again.stats.computed, 4);
    }

    #[test]
    fn recorded_metrics_cover_the_batch_counters() {
        let subs = small_batch();
        let registry = obs::Registry::new();
        Service::new(ServiceConfig::default())
            .run_batch(&subs)
            .record_metrics(&registry);
        let json = registry.snapshot().to_json();
        for needle in [
            "serve/submitted",
            "serve/accepted",
            "serve/cache/hits",
            "serve/jobs_computed",
            "serve/sojourn_vt",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn trace_is_worker_count_invariant_and_places_jobs_on_tenant_lanes() {
        let subs = small_batch();
        let tcfg = obs::trace::TraceConfig::default();
        let trace = |workers| {
            Service::new(ServiceConfig::with_workers(workers))
                .run_batch(&subs)
                .trace(&subs, &tcfg)
        };
        let (trace1, trace4) = (trace(1), trace(4));
        assert_eq!(trace1.to_chrome_json(), trace4.to_chrome_json());
        let json = trace1.to_chrome_json();
        for needle in ["tenant/0", "tenant/3", "cache", "queue_depth"] {
            assert!(json.contains(needle), "missing {needle}");
        }
        let analysis = obs::trace::analyze::analyze(&trace1);
        assert!(analysis
            .lanes
            .iter()
            .any(|l| l.busy.iter().any(|(c, t)| c == "job" && *t > 0)));
    }

    #[test]
    fn sojourn_percentiles_come_from_the_plan() {
        let subs = small_batch();
        let report = Service::new(ServiceConfig::default()).run_batch(&subs);
        let s = report.sojourns_vt();
        assert!(!s.is_empty());
        assert_eq!(report.sojourn_percentile_vt(0.0), s[0]);
        assert_eq!(report.sojourn_percentile_vt(1.0), *s.last().unwrap());
        assert!(report.sojourn_percentile_vt(0.5) <= report.sojourn_percentile_vt(0.99));
    }
}
