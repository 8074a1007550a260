//! Weighted fair queueing with virtual-time ticket accounting.
//!
//! The scheduler answers one question: given the arrivals a shard
//! admitted for one day, in what order do jobs dispatch? The answer is
//! a **pure function of the submitted workload** — tenants, tickets,
//! specs, arrival times — computed before any worker thread starts, so
//! it is bit-identical for every worker-pool size. This is the
//! cluster's extension of the repo-wide determinism contract.
//!
//! The accounting is classic WFQ: each tenant owns a virtual clock.
//! A job's virtual span is its [`cost_estimate`](crate::spec::JobSpec::cost_estimate)
//! scaled down by the tenant's tickets (more tickets → shorter spans →
//! more frequent dispatch). A job starts at the later of its tenant's
//! clock and its arrival, finishes `span` later, and advances the
//! clock; dispatch order is the sort by the key
//! `(finish_vt, tenant, submission index)`. The key is total (the
//! submission index is unique), so any sort gives one order, and every
//! digest downstream of it is unambiguous.
//!
//! The plan computes times only. The cluster digests each spec once at
//! admission and looks a row's digest up by its submission index.

use crate::cluster::KeyMap;
use crate::spec::JobSpec;

/// One admitted submission, as the scheduler sees it.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Submitting tenant (a team number in the course workload).
    pub tenant: u32,
    /// The tenant's ticket weight (≥ 1; 0 is clamped to 1).
    pub tickets: u32,
    /// The work.
    pub spec: JobSpec,
}

impl Submission {
    /// Convenience constructor.
    pub fn new(tenant: u32, tickets: u32, spec: JobSpec) -> Self {
        Submission {
            tenant,
            tickets,
            spec,
        }
    }
}

/// A scheduled job: the WFQ plan's row for one admitted arrival. It
/// holds the row's times, not its spec digest: the caller keys that
/// by [`submission`](Planned::submission).
#[derive(Debug, Clone)]
pub struct Planned {
    /// The arrival's index in the day (the caller's own index).
    pub submission: usize,
    /// Submitting tenant.
    pub tenant: u32,
    /// Virtual time the job arrived.
    pub arrival_vt: u64,
    /// Virtual time the job starts on its tenant's clock.
    pub start_vt: u64,
    /// Virtual time the job finishes — the dispatch sort key.
    pub finish_vt: u64,
}

/// Scale factor between cost units and virtual time, so ticket
/// division keeps resolution (`cost * SCALE / tickets`).
const VT_SCALE: u64 = 1_000;

/// Computes the WFQ dispatch plan for admitted arrivals, returned in
/// dispatch order.
///
/// `accepted` gives each admitted submission with its index in the day
/// (indices need not be contiguous — rejected arrivals leave holes)
/// and its arrival virtual time. A job cannot start before it arrives:
/// `start_vt = max(tenant clock, arrival_vt)`. The sojourn of a job is
/// `finish_vt - arrival_vt`, so deadline-burst backlogs (a tenant
/// submitting faster than its ticket share drains) show up as growing
/// sojourns. The course week arrives all at once, at vt 0, so its
/// sojourns are the finish times.
pub fn plan_arrivals(accepted: &[(usize, &Submission, u64)]) -> Vec<Planned> {
    let mut clocks: KeyMap<u32, u64> = KeyMap::default();
    let mut rows: Vec<Planned> = Vec::with_capacity(accepted.len());
    for (index, sub, arrival_vt) in accepted {
        let tickets = sub.tickets.max(1) as u64;
        let cost = sub.spec.cost_estimate().max(1);
        let span = (cost.saturating_mul(VT_SCALE) / tickets).max(1);
        let clock = clocks.entry(sub.tenant).or_insert(0);
        let start_vt = (*clock).max(*arrival_vt);
        let finish_vt = start_vt.saturating_add(span);
        *clock = finish_vt;
        rows.push(Planned {
            submission: *index,
            tenant: sub.tenant,
            arrival_vt: *arrival_vt,
            start_vt,
            finish_vt,
        });
    }
    // Total order: finish_vt, then tenant, then submission index. The
    // last key is unique per row, so no two rows compare equal and the
    // unstable sort is as deterministic as a stable one, even between
    // tenants with identical clocks and costs.
    rows.sort_unstable_by_key(|p| (p.finish_vt, p.tenant, p.submission));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CostSpec, ScheduleSpec};

    fn loop_spec(iterations: u64) -> JobSpec {
        JobSpec::LoopSim {
            iterations,
            cost: CostSpec::Uniform { cycles: 100 },
            schedule: ScheduleSpec::StaticBlock,
            threads: 4,
        }
    }

    /// The plan of submissions that all arrive at virtual time 0.
    fn plan_at_zero(accepted: &[(usize, &Submission)]) -> Vec<Planned> {
        let timed: Vec<(usize, &Submission, u64)> =
            accepted.iter().map(|&(i, s)| (i, s, 0)).collect();
        plan_arrivals(&timed)
    }

    #[test]
    fn plan_is_a_pure_function_of_the_workload() {
        let subs: Vec<Submission> = (0..10)
            .map(|t| Submission::new(t % 3, 1 + t % 2, loop_spec(1_000 + t as u64)))
            .collect();
        let accepted: Vec<(usize, &Submission)> = subs.iter().enumerate().collect();
        let a = plan_at_zero(&accepted);
        let b = plan_at_zero(&accepted);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.submission, y.submission);
            assert_eq!((x.start_vt, x.finish_vt), (y.start_vt, y.finish_vt));
        }
    }

    #[test]
    fn more_tickets_means_earlier_finish_for_equal_work() {
        let heavy = Submission::new(0, 4, loop_spec(10_000));
        let light = Submission::new(1, 1, loop_spec(10_000));
        let subs = [(0usize, &heavy), (1usize, &light)];
        let rows = plan_at_zero(&subs);
        assert_eq!(rows[0].tenant, 0, "4-ticket tenant dispatches first");
        assert!(rows[0].finish_vt < rows[1].finish_vt);
    }

    #[test]
    fn per_tenant_clocks_interleave_tenants_fairly() {
        // Tenant 0 submits three jobs, tenant 1 submits one of the
        // same size: tenant 1's single job must not queue behind all
        // of tenant 0's backlog.
        let t0: Vec<Submission> = (0..3)
            .map(|_| Submission::new(0, 1, loop_spec(5_000)))
            .collect();
        let t1 = Submission::new(1, 1, loop_spec(5_000));
        let mut accepted: Vec<(usize, &Submission)> = t0.iter().enumerate().collect();
        accepted.push((3, &t1));
        let rows = plan_at_zero(&accepted);
        let pos_t1 = rows.iter().position(|p| p.tenant == 1).expect("t1");
        assert!(
            pos_t1 <= 1,
            "tenant 1's first job dispatches among the first two, got {pos_t1}"
        );
    }

    #[test]
    fn tie_break_is_total_and_stable() {
        // Two tenants with identical costs tie on finish_vt; the
        // tenant id breaks the tie before the submission index does.
        let a = Submission::new(0, 1, loop_spec(1_000));
        let b = Submission::new(1, 1, loop_spec(1_000));
        let rows = plan_at_zero(&[(2, &b), (5, &a)]);
        assert_eq!(rows[0].tenant, 0, "tenant id breaks the finish tie");
        assert_eq!(rows[0].submission, 5);
    }

    #[test]
    fn zero_tickets_clamp_to_one() {
        let s = Submission::new(0, 0, loop_spec(1_000));
        let rows = plan_at_zero(&[(0, &s)]);
        assert!(rows[0].finish_vt > 0);
    }

    #[test]
    fn arrivals_gate_start_times_and_backlogs_grow_sojourns() {
        // An idle tenant's job starts at its arrival; a backlogged
        // tenant's jobs queue behind the clock, so later arrivals of a
        // burst see longer sojourns.
        let s = Submission::new(0, 1, loop_spec(1_000));
        let late = Submission::new(1, 1, loop_spec(1_000));
        let rows = plan_arrivals(&[
            (0, &s, 0),
            (1, &s, 1),
            (2, &s, 2),
            (3, &late, 1_000_000_000_000),
        ]);
        let by_sub = |i: usize| rows.iter().find(|p| p.submission == i).unwrap();
        // The burst: each job starts when the previous finishes.
        assert_eq!(by_sub(0).start_vt, 0);
        assert_eq!(by_sub(1).start_vt, by_sub(0).finish_vt);
        let sojourn = |i: usize| by_sub(i).finish_vt - by_sub(i).arrival_vt;
        assert!(sojourn(2) > sojourn(0));
        // The idle tenant starts exactly at its (late) arrival.
        assert_eq!(by_sub(3).start_vt, 1_000_000_000_000);
    }
}
