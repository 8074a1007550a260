//! Cluster health telemetry: per-day, per-shard time series over a
//! semester, plus the alert policy that watches them.
//!
//! [`run_semester_observed`] hangs a collector off
//! [`run_semester_with`]'s observer hook: after each day is served it
//! reads the finished [`DayReport`] into an [`obs::SeriesSet`] (window
//! = day index). The collector only *reads* day reports, so it is
//! observer-effect-safe by construction — both semester digests are
//! identical with and without telemetry.
//!
//! Two classes of series, mirroring the cluster's own digest pair:
//!
//! * **invariant** (`sem/…` admission-side counters): decided before
//!   routing, so bit-identical across every (shards × workers) cell —
//!   their digest ([`obs::SeriesSet::invariant_digest`]) is *the*
//!   telemetry digest `tests/serve.rs` pins;
//! * **per-shard** (`shard/…` hit rates, sojourns, queue depth):
//!   worker-invariant for a fixed shard count, like the full semester
//!   digest.
//!
//! [`health_policy`] watches them with one burn-rate SLO (admission
//! rejections against a 2% error budget, 1-day fast / 7-day slow
//! windows) and two seasonal anomaly rules (per-shard p99 sojourn,
//! cluster arrival volume). The clean semester stays quiet; the
//! seeded [`Perturbation::storm`](crate::workload::Perturbation::storm) provably fires both families.

use obs::alert::{self, AlertPolicy, AnomalyRule, BurnRateSlo, Timeline};
use obs::timeseries::{SeriesSet, CLUSTER_SHARD};

use crate::cluster::{
    run_semester_with, Cluster, ClusterConfig, ClusterOutcome, DayReport, SemesterReport,
};
use crate::workload::{Arrival, SemesterConfig};

/// Sojourn histogram bucket edges (virtual ticks): a power-of-two
/// ladder from 1/16 day to 4096 days, fixed so percentile points are
/// byte-stable.
pub const SOJOURN_EDGES: [u64; 19] = [
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    4_000_000_000,
    8_000_000_000,
    16_000_000_000,
    32_000_000_000,
    64_000_000_000,
    128_000_000_000,
    256_000_000_000,
    512_000_000_000,
    1_024_000_000_000,
    2_048_000_000_000,
    4_096_000_000_000,
    8_192_000_000_000,
    16_384_000_000_000,
    32_768_000_000_000,
    16_384_000_000_000_000,
];

/// Ring capacity in windows: a full 105-day semester fits with room,
/// so no semester telemetry is ever dropped — drops stay an explicit
/// overload signal.
pub const WINDOW_CAPACITY: usize = 128;

/// An empty series set shaped for semester telemetry (window = one
/// day, [`WINDOW_CAPACITY`] windows per series).
pub fn semester_series() -> SeriesSet {
    SeriesSet::new(1, WINDOW_CAPACITY)
}

/// Reads one served day into `series`. `day` is the window index; the
/// day's report supplies every value — nothing is measured, so the
/// collector cannot perturb what it observes.
pub fn collect_day(series: &mut SeriesSet, day: usize, arrivals: &[Arrival], report: &DayReport) {
    let w = day as u64;
    let s = &report.stats;

    // Admission-side counters: cluster-wide policy, decided before
    // routing — shard-invariant by construction.
    series
        .counter("sem/submitted", CLUSTER_SHARD, true)
        .record(w, s.submitted);
    series
        .counter("sem/accepted", CLUSTER_SHARD, true)
        .record(w, s.accepted);
    series
        .counter("sem/rejected", CLUSTER_SHARD, true)
        .record(w, s.rejected());
    series
        .counter("sem/rejected_queue_full", CLUSTER_SHARD, true)
        .record(w, s.rejected_queue_full);
    series
        .counter("sem/rejected_tenant_cap", CLUSTER_SHARD, true)
        .record(w, s.rejected_tenant_cap);
    series
        .counter("sem/rejected_invalid", CLUSTER_SHARD, true)
        .record(w, s.rejected_invalid);
    let demand: u64 = arrivals
        .iter()
        .zip(&report.outcomes)
        .filter(|(_, outcome)| matches!(outcome, ClusterOutcome::Done(_)))
        .map(|(arrival, _)| arrival.sub.spec.cost_estimate())
        .fold(0u64, u64::saturating_add);
    series
        .counter("sem/demand_cost", CLUSTER_SHARD, true)
        .record(w, demand);

    // Cluster-level service quality (shard-dependent: sojourns come
    // out of per-shard WFQ clocks).
    series
        .counter("sem/computed", CLUSTER_SHARD, false)
        .record(w, s.computed);
    series
        .counter("sem/single_flight_joins", CLUSTER_SHARD, false)
        .record(w, s.local_joins + s.cross_joins);
    let sojourn = series.histogram("sem/sojourn_vt", CLUSTER_SHARD, false, &SOJOURN_EDGES);
    for outcome in &report.outcomes {
        if let ClusterOutcome::Done(done) = outcome {
            sojourn.record(w, done.sojourn_vt());
        }
    }

    // Per-shard service series.
    let mut shard_sojourns: Vec<Vec<u64>> = vec![Vec::new(); report.per_shard.len()];
    for outcome in &report.outcomes {
        if let ClusterOutcome::Done(done) = outcome {
            if let Some(bucket) = shard_sojourns.get_mut(done.shard as usize) {
                bucket.push(done.sojourn_vt());
            }
        }
    }
    for (shard, day_stats) in report.per_shard.iter().enumerate() {
        let shard_id = shard as u32;
        series
            .counter("shard/dispatched", shard_id, false)
            .record(w, day_stats.dispatched);
        series
            .counter("shard/l1_hits", shard_id, false)
            .record(w, day_stats.l1_hits);
        series
            .counter("shard/l2_hits", shard_id, false)
            .record(w, day_stats.l2_hits);
        series
            .counter("shard/cross_joins", shard_id, false)
            .record(w, day_stats.cross_joins);
        series
            .counter("shard/computed", shard_id, false)
            .record(w, day_stats.computed);
        let served_without_compute =
            day_stats.l1_hits + day_stats.l2_hits + day_stats.local_joins + day_stats.cross_joins;
        let hit_pm = (served_without_compute * 1_000)
            .checked_div(day_stats.dispatched)
            .unwrap_or(0);
        series
            .gauge("shard/hit_rate_pm", shard_id, false)
            .record(w, hit_pm);

        let sojourns = &mut shard_sojourns[shard];
        sojourns.sort_unstable();
        let p99 = if sojourns.is_empty() {
            0
        } else {
            sojourns[(sojourns.len() - 1) * 99 / 100]
        };
        series
            .gauge("shard/p99_sojourn_vt", shard_id, false)
            .record(w, p99);
        // Little's-law day-average backlog: summed sojourn over the
        // day span (integer days, floor).
        let backlog: u64 =
            sojourns.iter().fold(0u64, |a, &b| a.saturating_add(b)) / crate::workload::DAY_VT;
        series
            .gauge("shard/queue_depth", shard_id, false)
            .record(w, backlog);
    }
}

/// Runs a semester with the telemetry collector attached, returning
/// the usual report plus the series. The semester digests in the
/// report are bit-identical to a bare [`crate::cluster::run_semester`]
/// run — asserted by tests and the serve `--check` smoke.
pub fn run_semester_observed(
    cluster: &Cluster,
    cfg: &SemesterConfig,
) -> (SemesterReport, SeriesSet) {
    let mut series = semester_series();
    let report = run_semester_with(cluster, cfg, |day, arrivals, day_report| {
        collect_day(&mut series, day, arrivals, day_report);
    });
    (report, series)
}

/// The semester health policy:
///
/// * `deadline-storm` — burn-rate SLO on admission rejections with a
///   2% error budget. The clean semester's worst day (deadline Friday
///   tenant-cap clipping) burns well under the 10× fast threshold;
///   the storm burns it tens of times over while the 7-day window
///   confirms the spend.
/// * `shard-hotspot` — seasonal MAD z on each shard's p99 sojourn:
///   compares a Friday only with prior Fridays, so the weekly deadline
///   rhythm is baseline, not anomaly. Only the shard owning the hot
///   route key spikes.
/// * `arrival-surge` — the same seasonal z on cluster arrival volume.
pub fn health_policy() -> AlertPolicy {
    AlertPolicy {
        slos: vec![BurnRateSlo {
            name: "deadline-storm".into(),
            bad_series: "sem/rejected".into(),
            total_series: "sem/submitted".into(),
            budget_per_mille: 20,
            fast_windows: 1,
            slow_windows: 7,
            fast_burn_milli: 10_000,
            slow_burn_milli: 2_000,
        }],
        anomalies: vec![
            AnomalyRule {
                name: "shard-hotspot".into(),
                series: "shard/p99_sojourn_vt".into(),
                period: 7,
                min_baseline: 2,
                threshold_z_milli: 8_000,
            },
            AnomalyRule {
                name: "arrival-surge".into(),
                series: "sem/submitted".into(),
                period: 7,
                min_baseline: 2,
                threshold_z_milli: 8_000,
            },
        ],
    }
}

/// Evaluates [`health_policy`] over a semester's series.
pub fn evaluate_health(series: &SeriesSet) -> Timeline {
    alert::evaluate(series, &health_policy())
}

/// A unicode sparkline of one series' per-window scalars, scaled to
/// its own maximum (`▁`..`█`; `·` for an absent window).
pub fn sparkline(series: &SeriesSet, name: &str, shard: u32, days: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let Some(s) = series.get(name, shard) else {
        return "·".repeat(days);
    };
    let values: Vec<Option<u64>> = (0..days as u64).map(|w| s.scalar(w)).collect();
    let max = values.iter().flatten().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|v| match v {
            None => '·',
            Some(0) => BARS[0],
            Some(v) if max == 0 => {
                let _ = v;
                BARS[0]
            }
            Some(v) => BARS[((v.saturating_mul(7)) / max.max(1)) as usize],
        })
        .collect()
}

/// Renders the `health` report artefact: the smoke semester served
/// clean and perturbed by the canonical 4-shard × 2-worker cluster —
/// incident timelines for both, a sparkline table of the watched
/// series, and every digest. Pure, so the text is bit-identical on
/// every host.
pub fn health_artefact() -> String {
    use std::fmt::Write as _;

    let clean_cfg = SemesterConfig::smoke();
    let storm_cfg = SemesterConfig::smoke().with_storm();
    let (clean_report, clean_series) =
        run_semester_observed(&Cluster::new(ClusterConfig::with_shards(4, 2)), &clean_cfg);
    let (storm_report, storm_series) =
        run_semester_observed(&Cluster::new(ClusterConfig::with_shards(4, 2)), &storm_cfg);
    let clean_tl = evaluate_health(&clean_series);
    let storm_tl = evaluate_health(&storm_series);

    let mut out = String::new();
    out.push_str("Semester health (smoke config, 4 shards x 2 workers)\n");
    out.push_str("====================================================\n\n");
    let _ = writeln!(
        out,
        "clean semester:      {} arrivals, {} incidents firing",
        clean_report.stats.submitted,
        clean_tl.firing_count()
    );
    let _ = writeln!(
        out,
        "perturbed semester:  {} arrivals, {} incidents firing",
        storm_report.stats.submitted,
        storm_tl.firing_count()
    );
    let _ = writeln!(
        out,
        "telemetry digest (invariant): clean 0x{:016x}, perturbed 0x{:016x}",
        clean_series.invariant_digest(),
        storm_series.invariant_digest()
    );
    let _ = writeln!(
        out,
        "telemetry digest (full):      clean 0x{:016x}, perturbed 0x{:016x}",
        clean_series.digest(),
        storm_series.digest()
    );
    let _ = writeln!(
        out,
        "semantic semester digest:     clean 0x{:016x}, perturbed 0x{:016x}",
        clean_report.semantic_digest, storm_report.semantic_digest
    );

    out.push_str("\nincident timeline (clean):\n");
    out.push_str(&indent(&clean_tl.render_text()));
    out.push_str("\nincident timeline (perturbed):\n");
    out.push_str(&indent(&storm_tl.render_text()));

    let days = storm_cfg.days;
    out.push_str("\nwatched series, day 0 on the left (perturbed semester):\n");
    let mut spark_rows: Vec<(String, String)> = vec![
        (
            "sem/submitted".into(),
            sparkline(&storm_series, "sem/submitted", CLUSTER_SHARD, days),
        ),
        (
            "sem/rejected".into(),
            sparkline(&storm_series, "sem/rejected", CLUSTER_SHARD, days),
        ),
        (
            "sem/sojourn_vt p99".into(),
            sparkline(&storm_series, "sem/sojourn_vt", CLUSTER_SHARD, days),
        ),
    ];
    for shard in storm_series.shards_of("shard/p99_sojourn_vt") {
        spark_rows.push((
            format!("shard/{shard} p99_sojourn_vt"),
            sparkline(&storm_series, "shard/p99_sojourn_vt", shard, days),
        ));
    }
    for (label, spark) in &spark_rows {
        let _ = writeln!(out, "  {label:<26} {spark}");
    }
    let _ = writeln!(
        out,
        "\nwindows dropped: clean {}, perturbed {} (capacity {} days)",
        clean_series.total_dropped(),
        storm_series.total_dropped(),
        WINDOW_CAPACITY
    );
    out
}

fn indent(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::run_semester;

    fn tiny_cfg() -> SemesterConfig {
        SemesterConfig {
            tenants: 40,
            days: 21,
            ..SemesterConfig::smoke()
        }
    }

    #[test]
    fn telemetry_is_observer_effect_safe() {
        let cfg = tiny_cfg();
        let bare = run_semester(&Cluster::new(ClusterConfig::with_shards(2, 2)), &cfg);
        let (observed, series) =
            run_semester_observed(&Cluster::new(ClusterConfig::with_shards(2, 2)), &cfg);
        assert_eq!(bare.full_digest, observed.full_digest);
        assert_eq!(bare.semantic_digest, observed.semantic_digest);
        assert!(series.len() > 10, "series missing: {}", series.len());
        assert_eq!(series.total_dropped(), 0);
    }

    #[test]
    fn invariant_digest_is_cell_invariant_and_full_digest_worker_invariant() {
        let cfg = tiny_cfg();
        let run = |shards: u32, workers: usize| {
            let (_, series) = run_semester_observed(
                &Cluster::new(ClusterConfig::with_shards(shards, workers)),
                &cfg,
            );
            (series.invariant_digest(), series.digest())
        };
        let (inv_1_1, full_1_1) = run(1, 1);
        let (inv_1_4, full_1_4) = run(1, 4);
        let (inv_2_1, full_2_1) = run(2, 1);
        let (inv_2_4, full_2_4) = run(2, 4);
        assert_eq!(inv_1_1, inv_1_4);
        assert_eq!(inv_1_1, inv_2_1);
        assert_eq!(inv_1_1, inv_2_4);
        assert_eq!(full_1_1, full_1_4, "full digest must be worker-invariant");
        assert_eq!(full_2_1, full_2_4, "full digest must be worker-invariant");
        assert_ne!(full_1_1, full_2_1, "per-shard series differ by shard count");
    }

    #[test]
    fn hotspot_fires_on_exactly_one_shard() {
        let storm = SemesterConfig::smoke().with_storm();
        let (_, series) =
            run_semester_observed(&Cluster::new(ClusterConfig::with_shards(4, 2)), &storm);
        let tl = evaluate_health(&series);
        let shards: std::collections::BTreeSet<u32> = tl
            .incidents
            .iter()
            .filter(|i| i.rule == "shard-hotspot")
            .map(|i| i.shard)
            .collect();
        assert_eq!(
            shards.len(),
            1,
            "hotspot not localized:\n{}",
            tl.render_text()
        );
    }

    #[test]
    fn health_artefact_is_pure_and_mentions_both_timelines() {
        let a = health_artefact();
        assert_eq!(a, health_artefact());
        assert!(a.contains("incident timeline (clean)"));
        assert!(a.contains("no incidents"), "{a}");
        assert!(a.contains("FIRING"), "{a}");
        assert!(a.contains("deadline-storm"), "{a}");
    }
}
