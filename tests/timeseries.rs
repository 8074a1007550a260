//! Property tests for the telemetry pipeline's determinism contract:
//!
//! * sharding is a view, not a semantic: rolling up per-shard series
//!   sets merged shard-by-shard is bit-identical to rolling up one set
//!   fed the same points as a single `(window, shard, series)`-ordered
//!   stream, at every cluster width in {1, 2, 4, 8};
//! * the alert evaluator is pure: evaluating a series set neither
//!   perturbs the set nor varies between invocations.

use obs::{AlertPolicy, AnomalyRule, BurnRateSlo, SeriesSet};
use proptest::prelude::*;

/// One synthetic telemetry event. The routing key decides the shard
/// (`key % shards`), mirroring how the cluster routes by content
/// digest; the series index picks one of a counter, a gauge and a
/// histogram.
#[derive(Debug, Clone)]
struct Event {
    series: u8,
    key: u64,
    window: u64,
    value: u64,
}

const EDGES: [u64; 4] = [10, 100, 1_000, 10_000];

fn record(set: &mut SeriesSet, shard: u32, ev: &Event) {
    let series = match ev.series % 3 {
        0 => set.counter("ev/count", shard, false),
        1 => set.gauge("ev/gauge", shard, false),
        _ => set.histogram("ev/lat", shard, false, &EDGES),
    };
    series.record(ev.window, ev.value);
}

fn series_name(ev: &Event) -> &'static str {
    match ev.series % 3 {
        0 => "ev/count",
        1 => "ev/gauge",
        _ => "ev/lat",
    }
}

/// Raw event tuples (series, key, window, value); the vendored
/// proptest has no `prop_map`, so conversion to [`Event`] happens in
/// the test body.
fn event_strategy() -> impl Strategy<Value = Vec<(u8, u64, u64, u64)>> {
    prop::collection::vec((0u8..3, 0u64..64, 0u64..20, 0u64..20_000), 0..200)
}

fn events_of(raw: &[(u8, u64, u64, u64)]) -> Vec<Event> {
    raw.iter()
        .map(|&(series, key, window, value)| Event {
            series,
            key,
            window,
            value,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn merged_rollup_is_bit_identical_to_ordered_concatenation_rollup(
        raw in event_strategy(),
    ) {
        // The cluster feeds each series ascending virtual time (one
        // day after another); the ring intentionally drops samples
        // older than its oldest retained window, so the bit-identity
        // contract is over window-ordered feeds. Stable sort keeps
        // same-window relative order (gauge last-write-wins intact).
        let mut events = events_of(&raw);
        events.sort_by_key(|ev| ev.window);
        for shards in [1u32, 2, 4, 8] {
            // Way A: one series set per shard, each fed only its own
            // events (the cluster's per-shard collection), merged then
            // rolled up.
            let mut parts: Vec<SeriesSet> =
                (0..shards).map(|_| SeriesSet::new(1, 32)).collect();
            for ev in &events {
                let shard = (ev.key % u64::from(shards)) as u32;
                record(&mut parts[shard as usize], shard, ev);
            }
            let merged = SeriesSet::merge(parts).rollup();

            // Way B: one set fed the identical points as a single
            // stream, ordered by (window, shard, series).
            let mut ordered = events.clone();
            ordered.sort_by_key(|ev| {
                (ev.window, ev.key % u64::from(shards), series_name(ev))
            });
            let mut single = SeriesSet::new(1, 32);
            for ev in &ordered {
                let shard = (ev.key % u64::from(shards)) as u32;
                record(&mut single, shard, ev);
            }
            let concatenated = single.rollup();

            prop_assert_eq!(
                merged.to_json(),
                concatenated.to_json(),
                "rollup bytes diverge at {} shard(s)",
                shards
            );
            prop_assert_eq!(merged.digest(), concatenated.digest());
        }
    }

    #[test]
    fn alert_evaluation_is_pure(raw in event_strategy()) {
        let events = events_of(&raw);
        let mut set = SeriesSet::new(1, 32);
        for ev in &events {
            let shard = (ev.key % 4) as u32;
            record(&mut set, shard, ev);
        }
        let policy = AlertPolicy {
            slos: vec![BurnRateSlo {
                name: "count-burn".into(),
                bad_series: "ev/gauge".into(),
                total_series: "ev/count".into(),
                budget_per_mille: 20,
                fast_windows: 1,
                slow_windows: 7,
                fast_burn_milli: 10_000,
                slow_burn_milli: 2_000,
            }],
            anomalies: vec![AnomalyRule {
                name: "lat-spike".into(),
                series: "ev/lat".into(),
                period: 7,
                min_baseline: 2,
                threshold_z_milli: 8_000,
            }],
        };

        let before = set.digest();
        let first = obs::alert::evaluate(&set, &policy);
        let second = obs::alert::evaluate(&set, &policy);

        // Pure: same incidents, and the evaluated set is untouched.
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(set.digest(), before);

        // Edges alternate per (rule, shard): a firing incident is
        // always followed (if anything) by a resolved one and vice
        // versa — the state-machine invariant the timeline renderer
        // relies on.
        use std::collections::BTreeMap;
        let mut last: BTreeMap<(String, u32), obs::IncidentEdge> = BTreeMap::new();
        for incident in &first.incidents {
            let key = (incident.rule.clone(), incident.shard);
            if let Some(prev) = last.get(&key) {
                prop_assert!(*prev != incident.edge, "consecutive identical edges");
            }
            last.insert(key, incident.edge);
        }
    }
}
