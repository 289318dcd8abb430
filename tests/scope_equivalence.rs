//! presto-scope slot readings against the full snapshot tree.
//!
//! The scope no longer builds a snapshot per tick: it compiles its
//! followed paths to slots and reads them from the deployment's
//! `Observe` walk. The full tree that walk builds for
//! `telemetry_snapshot` is the oracle. On every tick of a fleet run
//! (Zipf load, a proxy crash and a mesh partition) and of a
//! single-system run with a sliced-pipeline scope, every followed
//! path's reading must equal `telemetry_snapshot().get(path)` — summed
//! counters, `max`-aggregated peaks, gauges, histogram fields and
//! absent paths alike — and every fed path must read its fed value.

use proptest::prelude::*;

use presto::core::{PrestoSystem, StoreQuery, SystemConfig};
use presto::fleet::{
    fleet_scope_config, FleetConfig, FleetDeployment, FleetScopeBounds, FEED_STALE_CONFIDENT,
};
use presto::net::LossProcess;
use presto::proxy::SliceConfig;
use presto::sim::{
    FaultPlan, FleetLoadConfig, FleetQueryLoad, QueryLoadConfig, SimDuration, SimTime,
};
use presto::telemetry::scope::WD_STALE_CONFIDENT;
use presto::telemetry::{
    Observe, PrestoScope, ScopeConfig, SeriesSpec, SlotReader, SlotTable, Snapshot, WatchdogRule,
};
use presto::workloads::LabParams;

const EPOCH: SimDuration = SimDuration::from_secs(31);

/// Extra followed paths: every way a path can resolve — a counter
/// summed across proxies, a `max`-aggregated peak, a gauge, each
/// histogram field — and every way it can fail to.
const EXTRA_PATHS: &[&str] = &[
    "pipeline.rpcs_issued",
    "pipeline.max_in_flight",
    "sensor.samples",
    "recovery.total_recovery_latency_s",
    "membership.heartbeats_heard",
    "interlink.retransmits",
    "fleet.fenced_pumping",
    "fleet_router.latency_us.count",
    "fleet_router.latency_us.p50",
    "fleet_router.latency_us.p90",
    "fleet_router.latency_us.max",
    "fleet_router.answer_age_us.mean",
    "profiler.epochs",
    "profiler.fleet_pump.calls",
    // Absent: no such gauge, section, or histogram field, and a
    // section rather than a value.
    "fleet.no_such_gauge",
    "no_such_root.x.y",
    "fleet_router.latency_us.p42",
    "fleet_router",
];

/// Paths only an outside reader follows: they change after the scope's
/// own walk within the tick (the scope counts its tick, the profiler
/// closes the scope phase), so they are compared at the same instant
/// instead.
const AFTER_TICK_PATHS: &[&str] = &[
    "scope.ticks",
    "scope.incidents_total",
    "scope.incidents.answer_age_p99",
    "profiler.fleet_scope.calls",
];

/// A path only ever fed.
const FED_ONLY: &str = "probe.only_fed";
/// A walked path the driver starts overriding halfway through.
const OVERRIDDEN: &str = "fleet_router.submitted";

fn extra_series(paths: &[&str]) -> Vec<SeriesSpec> {
    paths.iter().map(|p| SeriesSpec::level(p)).collect()
}

/// Asserts that the scope's last tick read `oracle` on every slot, or
/// the fed value on fed slots.
fn assert_scope_matches(scope: &PrestoScope, oracle: &Snapshot, fed: &[(&str, f64)], tick: u64) {
    for (slot, path) in scope.slots().paths().iter().enumerate() {
        let expected = match fed.iter().find(|(p, _)| p == path) {
            Some(&(_, v)) => Some(v),
            None => oracle.get(path),
        };
        assert_eq!(
            scope.readings()[slot],
            expected,
            "tick {tick}: slot reading of `{path}` diverged from the snapshot"
        );
    }
}

/// Asserts that a fresh reader over `source` reads exactly what the
/// full snapshot holds, at the same instant.
fn assert_reader_matches(source: &dyn Observe, oracle: &Snapshot, paths: &[String], tick: u64) {
    let mut table = SlotTable::default();
    for p in paths {
        table.intern(p);
    }
    let mut reader = SlotReader::new(&table);
    reader.read(source);
    for (slot, path) in table.paths().iter().enumerate() {
        assert_eq!(
            reader.readings()[slot],
            oracle.get(path),
            "tick {tick}: reader diverged from the snapshot on `{path}`"
        );
    }
}

fn fleet(seed: u64, faults: FaultPlan) -> FleetDeployment {
    let mut sys = SystemConfig {
        proxies: 3,
        sensors_per_proxy: 2,
        seed,
        lab: LabParams {
            events_per_day: 0.0,
            jitter_sigma: 0.08,
            heavy_prob: 0.0,
            field_sigma: 0.05,
            ..LabParams::default()
        },
        faults,
        profile: true,
        ..SystemConfig::default()
    };
    sys.reliability.downlink.request_loss = LossProcess::Bernoulli(0.3);
    sys.reliability.downlink.reply_loss = LossProcess::Bernoulli(0.3);
    // Windows always pull, so pipelines, downlinks and the mesh carry
    // real traffic.
    sys.proxy.past_coverage_hit = f64::INFINITY;
    sys.proxy.pipeline.epoch_attempt_budget = 8;
    sys.proxy.pipeline.trace = true;
    let mut scope = fleet_scope_config(&FleetScopeBounds::default());
    scope.series.extend(extra_series(EXTRA_PATHS));
    scope.series.push(SeriesSpec::level(FED_ONLY));
    sys.scope = scope;
    let mut fc = FleetConfig {
        system: sys,
        ..FleetConfig::default()
    };
    fc.router.shed_enabled = true;
    FleetDeployment::new(fc)
}

fn fleet_load(seed: u64) -> FleetQueryLoad {
    FleetQueryLoad::new(
        FleetLoadConfig {
            load: QueryLoadConfig {
                users: 12,
                queries_per_user_per_hour: 60.0,
                window_min: SimDuration::from_mins(10),
                window_max: SimDuration::from_mins(30),
                max_age: SimDuration::from_hours(2),
                tolerances: vec![0.05],
                seed: seed ^ 0x5C09E,
                ..QueryLoadConfig::default()
            },
            groups: 3,
            zipf_s: 1.6,
        },
        2,
    )
}

fn run_fleet(seed: u64, crash_at: u64, part_from: u64, part_len: u64) {
    let warmup = 3 * 3600 / 31;
    let query = 3600 / 31;
    let at = |e: u64| SimTime::ZERO + EPOCH * e;
    let faults = FaultPlan::none()
        .with_proxy_crash(2, at(warmup + crash_at), SimTime::from_hours(10_000))
        .with_mesh_partition(
            vec![1],
            at(warmup + part_from),
            at(warmup + part_from + part_len),
        );
    let mut fleet = fleet(seed, faults);
    let mut load = fleet_load(seed);
    let outside: Vec<String> = fleet
        .system
        .scope()
        .slots()
        .paths()
        .iter()
        .cloned()
        .chain(AFTER_TICK_PATHS.iter().map(|p| p.to_string()))
        .collect();
    let total = warmup + query + 30;
    let mut fed: Vec<(&str, f64)> = Vec::new();
    for e in 0..total {
        let t = fleet.now();
        if (warmup..warmup + query).contains(&e) {
            for a in load.step(t, EPOCH) {
                fleet.submit_arrival(&a);
            }
        }
        // Feeds: the stale probe every tick, a fed-only path on odd
        // ticks (a fed value persists until overwritten), and an
        // override of a walked path from halfway on.
        let mut feed = |path: &'static str, v: f64| {
            fleet.system.scope_mut().feed(path, v);
            match fed.iter_mut().find(|(p, _)| *p == path) {
                Some(slot) => slot.1 = v,
                None => fed.push((path, v)),
            }
        };
        feed(FEED_STALE_CONFIDENT, 0.0);
        if e % 2 == 1 {
            feed(FED_ONLY, e as f64);
        }
        if e >= total / 2 {
            feed(OVERRIDDEN, -1.0);
        }
        fleet.step_epoch();
        let _ = fleet.take_completed();
        let oracle = fleet.telemetry_snapshot();
        assert_scope_matches(fleet.system.scope(), &oracle, &fed, e);
        assert_reader_matches(&fleet, &oracle, &outside, e);
    }
    assert_eq!(fleet.system.scope().ticks(), total);
    assert!(
        fleet
            .telemetry_snapshot()
            .get("fleet_router.latency_us.count")
            > Some(0.0),
        "vacuous run: no query terminated"
    );
}

fn sliced_system(seed: u64) -> PrestoSystem {
    let mut sys = SystemConfig {
        proxies: 1,
        sensors_per_proxy: 4,
        seed,
        lab: LabParams {
            events_per_day: 0.0,
            ..LabParams::default()
        },
        ..SystemConfig::default()
    };
    sys.proxy.past_coverage_hit = f64::INFINITY;
    sys.proxy.pipeline.trace = true;
    sys.proxy.pipeline.slice = Some(SliceConfig::default());
    sys.reliability.downlink.request_loss = LossProcess::Bernoulli(0.3);
    sys.reliability.downlink.reply_loss = LossProcess::Bernoulli(0.3);
    let mut series = vec![
        SeriesSpec::delta("pipeline.rpcs_issued"),
        SeriesSpec::delta("pipeline.sliced"),
        SeriesSpec::delta("slice.lookups"),
        SeriesSpec::level("slice.l1_hits"),
        SeriesSpec::level("trace.recorder_len"),
        SeriesSpec::level("pipeline.max_in_flight"),
        SeriesSpec::level("downlink.retransmits"),
        SeriesSpec::level("pipeline.no_such_counter"),
    ];
    series.extend(extra_series(&["fleet_router.latency_us.p99", "scope"]));
    sys.scope = ScopeConfig {
        enabled: true,
        series,
        rules: vec![WatchdogRule::still(
            WD_STALE_CONFIDENT,
            FEED_STALE_CONFIDENT,
        )],
        ..ScopeConfig::default()
    };
    PrestoSystem::new(sys)
}

fn run_sliced(seed: u64, windows: &[(u8, u8)]) {
    let mut sys = sliced_system(seed);
    sys.run(SimDuration::from_hours(4));
    let outside: Vec<String> = sys
        .scope()
        .slots()
        .paths()
        .iter()
        .cloned()
        .chain(["scope.ticks".to_string()])
        .collect();
    for (e, &(sensor, offset)) in windows.iter().cycle().take(120).enumerate() {
        let from = SimTime::from_hours(1) + SimDuration::from_mins(offset as u64 % 90);
        sys.submit_query(StoreQuery::Past {
            sensor: (sensor % 4) as u16,
            from,
            to: from + SimDuration::from_mins(124),
            tolerance: 0.05,
        });
        sys.scope_mut().feed(FEED_STALE_CONFIDENT, 0.0);
        sys.step_epoch();
        let _ = sys.take_completed_queries();
        let oracle = sys.telemetry_snapshot();
        assert_scope_matches(
            sys.scope(),
            &oracle,
            &[(FEED_STALE_CONFIDENT, 0.0)],
            e as u64,
        );
        assert_reader_matches(&sys, &oracle, &outside, e as u64);
    }
    assert!(
        sys.telemetry_snapshot().get("slice.lookups") > Some(0.0),
        "vacuous run: the slice cache was never consulted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3 })]

    /// Fleet: any seed, any crash onset, any partition window.
    #[test]
    fn fleet_slot_readings_equal_the_snapshot(
        seed in 0u64..10_000,
        crash_at in 0u64..100,
        part_from in 0u64..80,
        part_len in 1u64..40,
    ) {
        run_fleet(seed, crash_at, part_from, part_len);
    }

    /// Single system, sliced pipeline: any seed, any window mix.
    #[test]
    fn sliced_slot_readings_equal_the_snapshot(
        seed in 0u64..10_000,
        windows in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..12),
    ) {
        run_sliced(seed, &windows);
    }
}
