//! Deterministic alerting over [`crate::timeseries`]: SLO burn-rate
//! rules and robust anomaly detection, emitting an ordered incident
//! timeline.
//!
//! Two rule families, both pure integer functions of the series set
//! (same series → same timeline, bit for bit):
//!
//! * **Multi-window burn rate** ([`BurnRateSlo`]) in the Google-SRE
//!   style: an objective grants an error budget (`budget_per_mille` of
//!   all events may be bad); the burn rate is how many times faster
//!   than budget the service is consuming it. A rule fires only when
//!   **both** a fast window (1 virtual day — catches the storm) and a
//!   slow window (7 virtual days — confirms it is not a blip) burn
//!   above their thresholds, which keeps single noisy windows from
//!   paging.
//! * **Seasonal MAD z-score** ([`AnomalyRule`]): each window is
//!   compared against the median of prior *same-phase* windows (stride
//!   `period`, e.g. prior Fridays for a Friday), deviation scaled by
//!   the median absolute deviation with a relative floor so flat
//!   baselines don't divide by ~zero. One-sided: only upward spikes
//!   fire. This is robust to the semester's weekly seasonality where a
//!   trailing mean would page every deadline Friday.
//!
//! The evaluator walks windows in ascending virtual time, tracks per
//! `(rule, series, shard)` firing state, and emits firing/resolved
//! edges with the offending window and the measured value — a
//! deterministic incident timeline ordered by
//! `(window, rule, series, shard)`.

use std::fmt::Write as _;

use crate::timeseries::{SeriesSet, TimeSeries};

/// A service-level objective with two-window burn-rate alerting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurnRateSlo {
    /// Rule name in the timeline (e.g. `deadline-storm`).
    pub name: String,
    /// Series counting bad events (e.g. `sem/rejected`).
    pub bad_series: String,
    /// Series counting all events (e.g. `sem/submitted`).
    pub total_series: String,
    /// Error budget: how many bad events per mille of total the
    /// objective tolerates.
    pub budget_per_mille: u64,
    /// Fast window length in windows (virtual days); catches spikes.
    pub fast_windows: u64,
    /// Slow window length in windows; confirms sustained burn.
    pub slow_windows: u64,
    /// Fast-window burn-rate threshold, in milli-burns (10_000 = 10x
    /// budget speed).
    pub fast_burn_milli: u64,
    /// Slow-window burn-rate threshold, in milli-burns.
    pub slow_burn_milli: u64,
}

impl BurnRateSlo {
    /// Burn rate over `[lo, hi]` in milli-burns: observed bad ratio
    /// divided by the budget ratio, times 1000. `None` when the window
    /// saw no events.
    fn burn_milli(&self, bad: &TimeSeries, total: &TimeSeries, lo: u64, hi: u64) -> Option<u64> {
        let total_sum = total.window_sum(lo, hi);
        if total_sum == 0 {
            return None;
        }
        let bad_sum = bad.window_sum(lo, hi);
        let num = bad_sum as u128 * 1_000_000;
        let den = total_sum as u128 * self.budget_per_mille.max(1) as u128;
        Some((num / den) as u64)
    }
}

/// A robust per-series anomaly rule: seasonal median-absolute-deviation
/// z-score, one-sided upward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyRule {
    /// Rule name in the timeline (e.g. `shard-hotspot`).
    pub name: String,
    /// Series to watch; every shard instance is evaluated separately.
    pub series: String,
    /// Seasonal stride in windows: a window's baseline is the prior
    /// windows at the same phase (7 = same weekday of prior weeks).
    pub period: u64,
    /// Minimum baseline samples before the rule evaluates at all —
    /// early windows with no history can never fire.
    pub min_baseline: usize,
    /// Firing threshold in milli-z (8000 = 8 robust standard
    /// deviations above the seasonal median).
    pub threshold_z_milli: u64,
}

impl AnomalyRule {
    /// Milli-z of `window`'s scalar against its seasonal baseline, or
    /// `None` when the baseline is too thin.
    fn z_milli(&self, series: &TimeSeries, window: u64) -> Option<u64> {
        let x = series.scalar(window)?;
        let mut baseline: Vec<u64> = Vec::new();
        let mut w = window;
        while w >= self.period {
            w -= self.period;
            if let Some(v) = series.scalar(w) {
                baseline.push(v);
            }
        }
        if baseline.len() < self.min_baseline {
            return None;
        }
        baseline.sort_unstable();
        let median = baseline[(baseline.len() - 1) / 2];
        let mut deviations: Vec<u64> = baseline.iter().map(|&v| v.abs_diff(median)).collect();
        deviations.sort_unstable();
        let mad = deviations[(deviations.len() - 1) / 2];
        // Relative floor: a near-constant baseline (MAD ~ 0) must not
        // make ordinary ramp-to-ramp drift look like an 8-sigma event.
        // A quarter of the median means z = 8000 demands roughly a 4x
        // spike over the seasonal median — day-to-day p99 noise on a
        // thin two-sample baseline stays well under that.
        let floor = mad.max(median / 4).max(1);
        let up = x.saturating_sub(median);
        Some(((up as u128 * 6_745) / (floor as u128 * 10)) as u64)
    }
}

/// The full rule set the evaluator runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlertPolicy {
    /// Burn-rate objectives.
    pub slos: Vec<BurnRateSlo>,
    /// Anomaly rules.
    pub anomalies: Vec<AnomalyRule>,
}

/// Which way an incident edge points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IncidentEdge {
    /// The rule crossed its threshold at this window.
    Firing,
    /// The rule dropped back below its threshold at this window.
    Resolved,
}

impl IncidentEdge {
    /// Stable text label.
    pub fn label(self) -> &'static str {
        match self {
            IncidentEdge::Firing => "FIRING",
            IncidentEdge::Resolved => "resolved",
        }
    }
}

/// One edge in the incident timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// The offending (or recovering) window.
    pub window: u64,
    /// Rule name.
    pub rule: String,
    /// Series the rule evaluated.
    pub series: String,
    /// Shard instance of the series ([`crate::timeseries::CLUSTER_SHARD`]
    /// for cluster-level series).
    pub shard: u32,
    /// Edge direction.
    pub edge: IncidentEdge,
    /// Measured value at the edge (milli-burns or milli-z).
    pub value_milli: u64,
    /// The threshold the value is compared against.
    pub threshold_milli: u64,
}

/// The ordered incident timeline an evaluation produces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Incident edges ordered by `(window, rule, series, shard)`.
    pub incidents: Vec<Incident>,
}

impl Timeline {
    /// Number of firing edges (the gate's headline number).
    pub fn firing_count(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| i.edge == IncidentEdge::Firing)
            .count()
    }

    /// Firing edges of one rule.
    pub fn firing_of(&self, rule: &str) -> usize {
        self.incidents
            .iter()
            .filter(|i| i.edge == IncidentEdge::Firing && i.rule == rule)
            .count()
    }

    /// Human-readable timeline, one line per edge.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.incidents.is_empty() {
            out.push_str("no incidents: every rule stayed below threshold\n");
            return out;
        }
        for inc in &self.incidents {
            let shard = if inc.shard == crate::timeseries::CLUSTER_SHARD {
                "cluster".to_string()
            } else {
                format!("shard {}", inc.shard)
            };
            let _ = writeln!(
                out,
                "day {:>3}  {:<8}  {:<16}  {} ({})  value {} milli vs threshold {}",
                inc.window,
                inc.edge.label(),
                inc.rule,
                inc.series,
                shard,
                inc.value_milli,
                inc.threshold_milli,
            );
        }
        out
    }
}

/// Evaluates every rule of `policy` over `series` and returns the
/// ordered incident timeline. Pure: no clock, no randomness, no state
/// beyond the arguments.
pub fn evaluate(series: &SeriesSet, policy: &AlertPolicy) -> Timeline {
    let mut incidents: Vec<Incident> = Vec::new();

    for slo in &policy.slos {
        // Evaluate per shard carrying BOTH series of the objective.
        for shard in series.shards_of(&slo.total_series) {
            let Some(total) = series.get(&slo.total_series, shard) else {
                continue;
            };
            let Some(bad) = series.get(&slo.bad_series, shard) else {
                continue;
            };
            let mut firing = false;
            for point in total.points() {
                let w = point.window;
                let fast_lo = (w + 1).saturating_sub(slo.fast_windows);
                let slow_lo = (w + 1).saturating_sub(slo.slow_windows);
                let fast = slo.burn_milli(bad, total, fast_lo, w).unwrap_or(0);
                let slow = slo.burn_milli(bad, total, slow_lo, w).unwrap_or(0);
                let above = fast >= slo.fast_burn_milli && slow >= slo.slow_burn_milli;
                if above != firing {
                    firing = above;
                    incidents.push(Incident {
                        window: w,
                        rule: slo.name.clone(),
                        series: slo.bad_series.clone(),
                        shard,
                        edge: if above {
                            IncidentEdge::Firing
                        } else {
                            IncidentEdge::Resolved
                        },
                        value_milli: fast,
                        threshold_milli: slo.fast_burn_milli,
                    });
                }
            }
        }
    }

    for rule in &policy.anomalies {
        for shard in series.shards_of(&rule.series) {
            let Some(s) = series.get(&rule.series, shard) else {
                continue;
            };
            let mut firing = false;
            for point in s.points() {
                let w = point.window;
                let Some(z) = rule.z_milli(s, w) else {
                    continue;
                };
                let above = z >= rule.threshold_z_milli;
                if above != firing {
                    firing = above;
                    incidents.push(Incident {
                        window: w,
                        rule: rule.name.clone(),
                        series: rule.series.clone(),
                        shard,
                        edge: if above {
                            IncidentEdge::Firing
                        } else {
                            IncidentEdge::Resolved
                        },
                        value_milli: z,
                        threshold_milli: rule.threshold_z_milli,
                    });
                }
            }
        }
    }

    incidents.sort_by(|a, b| {
        (a.window, &a.rule, &a.series, a.shard).cmp(&(b.window, &b.rule, &b.series, b.shard))
    });
    Timeline { incidents }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::CLUSTER_SHARD;

    fn storm_series() -> SeriesSet {
        // 21 quiet days at 1000 events / 10 bad (1% — exactly budget),
        // then a 2-day storm at 60% bad.
        let mut set = SeriesSet::new(1, 64);
        for day in 0..21u64 {
            let (total, bad) = if day == 14 || day == 15 {
                (1_000, 600)
            } else {
                (1_000, 10)
            };
            set.counter("total", CLUSTER_SHARD, true).record(day, total);
            set.counter("bad", CLUSTER_SHARD, true).record(day, bad);
        }
        set
    }

    fn storm_policy() -> AlertPolicy {
        AlertPolicy {
            slos: vec![BurnRateSlo {
                name: "storm".into(),
                bad_series: "bad".into(),
                total_series: "total".into(),
                budget_per_mille: 20,
                fast_windows: 1,
                slow_windows: 7,
                fast_burn_milli: 10_000,
                slow_burn_milli: 3_000,
            }],
            anomalies: Vec::new(),
        }
    }

    #[test]
    fn burn_rate_fires_on_the_storm_and_resolves_after() {
        let tl = evaluate(&storm_series(), &storm_policy());
        assert_eq!(tl.firing_count(), 1, "{}", tl.render_text());
        let fire = &tl.incidents[0];
        assert_eq!((fire.window, fire.edge), (14, IncidentEdge::Firing));
        assert!(fire.value_milli >= 10_000);
        let resolve = &tl.incidents[1];
        assert_eq!((resolve.window, resolve.edge), (16, IncidentEdge::Resolved));
    }

    #[test]
    fn quiet_series_stays_quiet() {
        let mut set = SeriesSet::new(1, 64);
        for day in 0..21u64 {
            set.counter("total", CLUSTER_SHARD, true).record(day, 1_000);
            set.counter("bad", CLUSTER_SHARD, true).record(day, 10);
        }
        let tl = evaluate(&set, &storm_policy());
        assert_eq!(tl.firing_count(), 0, "{}", tl.render_text());
    }

    #[test]
    fn fast_spike_without_slow_burn_does_not_page() {
        // One bad day inside an otherwise clean week: fast window burns
        // hot but the 7-day window stays under its threshold.
        let mut set = SeriesSet::new(1, 64);
        for day in 0..21u64 {
            let bad = if day == 14 { 45 } else { 0 };
            set.counter("total", CLUSTER_SHARD, true).record(day, 1_000);
            set.counter("bad", CLUSTER_SHARD, true).record(day, bad);
        }
        let tl = evaluate(&set, &storm_policy());
        assert_eq!(tl.firing_count(), 0, "{}", tl.render_text());
    }

    fn weekly_series(spike_day: Option<u64>) -> SeriesSet {
        // Strong weekly seasonality: Fridays are 5x a weekday. The
        // seasonal baseline must absorb that.
        let mut set = SeriesSet::new(1, 64);
        for day in 0..28u64 {
            let base = if day % 7 == 4 { 5_000 } else { 1_000 };
            let v = if Some(day) == spike_day {
                base * 8
            } else {
                base
            };
            set.gauge("p99", 3, false).record(day, v);
        }
        set
    }

    fn anomaly_policy() -> AlertPolicy {
        AlertPolicy {
            slos: Vec::new(),
            anomalies: vec![AnomalyRule {
                name: "hotspot".into(),
                series: "p99".into(),
                period: 7,
                min_baseline: 2,
                threshold_z_milli: 8_000,
            }],
        }
    }

    #[test]
    fn seasonal_baseline_absorbs_weekly_pattern() {
        let tl = evaluate(&weekly_series(None), &anomaly_policy());
        assert_eq!(tl.firing_count(), 0, "{}", tl.render_text());
    }

    #[test]
    fn off_season_spike_fires_on_the_right_shard_and_window() {
        let tl = evaluate(&weekly_series(Some(25)), &anomaly_policy());
        assert_eq!(tl.firing_count(), 1, "{}", tl.render_text());
        let fire = &tl.incidents[0];
        assert_eq!((fire.window, fire.shard), (25, 3));
        assert_eq!(fire.rule, "hotspot");
    }

    #[test]
    fn early_windows_below_min_baseline_never_fire() {
        // A huge day-3 spike has no same-phase history yet.
        let mut set = SeriesSet::new(1, 64);
        for day in 0..7u64 {
            let v = if day == 3 { 1_000_000 } else { 100 };
            set.gauge("p99", 0, false).record(day, v);
        }
        let tl = evaluate(&set, &anomaly_policy());
        assert_eq!(tl.firing_count(), 0, "{}", tl.render_text());
    }

    #[test]
    fn evaluator_is_pure() {
        let series = weekly_series(Some(25));
        let policy = anomaly_policy();
        let a = evaluate(&series, &policy);
        let b = evaluate(&series, &policy);
        assert_eq!(a, b);
        assert!(a.render_text().contains("FIRING"));
    }
}
